"""Trace-norm contraction coefficients and induced 1->1 norms.

The contraction coefficient tau(L) is the worst-case trace-norm growth on
traceless Hermitian inputs; for every linear map it equals half the
maximal output distance over pairs of orthogonal pure states.  On
Hermiticity-preserving qubit maps the Hermitian-restricted 1->1 norm has
a closed form in the Pauli transfer matrix, the only one: tau(T) is the
Hermitian norm of T(X - tr(X) I/2), and the general 1->1 norm of such a
map with only traceless outputs, such as a difference of two channels or
two generators, equals its Hermitian one.  Every other value, at any d,
comes from a seeded multistart power-method ascent (Boyd's method, as in
Hager's and Higham's 1-norm estimators, lifted to the trace norm and
accelerated by SQUAREM extrapolation) and is a *lower bound*; the spread
over restarts is reported as a quality signal.  A batch of problems of
one dimension takes one closed-form pass over its distinct qubit maps and
one ascent loop, whose rows (the other problems' seeded restarts, sorted
by kind) take one eigh per projection and shrink only when one of them
meets its own stopping rule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import (_PAULIS, SuperOperator, annihilates_trace, choi_matrix,
                       preserves_hermiticity)
from .errors import DimensionError, DomainError, ValidationError
from .linalg import apply_batch, dagger, trace_norm_batch
from .rng import DEFAULT_RESTARTS, SplitMix64, derive_seed

# power steps per ascent, two per SQUAREM cycle
MAXITER = 300
# random draws in the probe family, two probes each
PROBE_DRAWS = 64


@dataclass
class ContractionEstimate:
    """An optimizer output; ``value`` is a certified lower bound.

    ``best_witness`` reproduces ``value`` when plugged back into the
    objective.  ``convergence_spread`` is max - min over restart optima
    that converged (0.0 for the analytic method).  ``evaluations`` counts
    objective evaluations summed over restarts and ``converged`` the
    restarts that met the stopping rule (both 0 for the analytic method);
    both are work counters and stay out of :meth:`to_dict`.
    """

    value: float
    method: str            # multistart_manifold | analytic
    restarts: int
    best_witness: object
    convergence_spread: float
    evaluations: int = 0
    converged: int = 0

    def to_dict(self) -> dict:
        return {"value": self.value, "method": self.method,
                "restarts": self.restarts,
                "convergence_spread": self.convergence_spread}


# ---------------------------------------------------------------------------
# qubit closed forms


def _pauli_transfer(ms: np.ndarray) -> np.ndarray:
    """Pauli transfer matrices R_ij = tr[sigma_i T(sigma_j)] / 2 of a stack
    of Hermiticity-preserving qubit maps, shape (n, 4, 4) -> (n, 4, 4),
    from one einsum (real for such maps)."""
    images = apply_batch(ms, _PAULIS)
    return 0.5 * np.einsum("iab,njba->nij", _PAULIS, images).real


def _bloch_eigenvectors(n: np.ndarray) -> tuple:
    """Eigenvectors of n.sigma for unit Bloch vectors n, shape (..., 3),
    eigenvalue +1 first, from one eigh."""
    _, evecs = np.linalg.eigh(np.einsum("...i,ijk->...jk", n, _PAULIS[1:]))
    return evecs[..., 1], evecs[..., 0]


def _sphere_argmax(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Unit vectors n maximizing ||r + B n||_2 (a trust-region problem) for
    a stack of blocks ``b``, shape (k, 3, 3), and shifts ``r``, shape (k, 3).

    In the eigenbasis (mu_i, v_i) of M = B^T B, with c~ = V^T B^T r and
    gaps d_i = mu_max - mu_i, a maximizer is n = sum_i y_i v_i with
    y_i = c~_i / (s + d_i) for the root s >= 0 of ||y(s)|| = 1.  Newton's
    method on h(s) = 1/||y(s)|| - 1, which is concave and increasing,
    climbs monotonically to the root from s_0 = max(0, max_i |c~_i| - d_i),
    where ||y|| >= 1.  Keeping s and the gaps apart resolves near-equal
    top eigenvalues.  When ||y(0)|| <= 1 (the hard case, c~ vanishing on
    the top eigenvector) s = 0 and y is completed along v_max.  One eigh
    serves the stack; Newton runs row by row, only outside the hard case.
    """
    bt = b.swapaxes(1, 2)
    mu, v = np.linalg.eigh(bt @ b)
    gaps = mu[:, -1:] - mu
    ct = (v.swapaxes(1, 2) @ (bt @ r[:, :, None]))[:, :, 0]

    def over_gaps(x, s, k=...):             # rows k, all by default
        return np.divide(x, s + gaps[k], out=np.zeros(x.shape),
                         where=ct[k] != 0.0)

    s = np.maximum(0.0, np.max(np.abs(ct) - gaps, axis=1))
    y = over_gaps(ct, s[:, None])
    norm2 = np.sum(y * y, axis=1)
    hard = (s == 0.0) & (norm2 <= 1.0)          # here c~ = 0 wherever d_i = 0
    y[hard, -1] = np.sqrt(1.0 - norm2[hard])
    for k in np.nonzero(~hard)[0]:
        sk, yk = s[k], y[k]
        for _ in range(100):
            nk = yk @ yk
            s_next = sk + (np.sqrt(nk) - 1.0) * nk / (yk @ over_gaps(yk, sk, k))
            if not s_next > sk:
                break
            sk, yk = s_next, over_gaps(ct[k], s_next, k)
        y[k] = yk
    n = (v @ y[:, :, None])[:, :, 0]
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _hermitian_norm_qubit(r: np.ndarray) -> tuple:
    """Hermitian-restricted 1->1 norms of the qubit maps with real Pauli
    transfer matrices, the stack ``r``, exactly, and the Bloch vectors n of
    their witnesses: (values, n), shapes (k,) and (k, 3).

    The extreme points of the Hermitian trace-norm ball are +/- psi psi^dag
    with psi psi^dag = (I + n.sigma)/2, which maps to
    ((R00 + a.n) I + (r + B n).sigma)/2 for a = R[0,1:], r = R[1:,0],
    B = R[1:,1:]; its trace norm is max(|R00 + a.n|, ||r + B n||).  The
    first term peaks at n = +/- a/||a||, the second at the trust-region
    solution of :func:`_sphere_argmax`; the value is the objective at the
    better of the two unit vectors, so it is attained at the witness psi,
    the +1 eigenvector of n.sigma.
    """
    r00, a, shift, b = r[:, 0, 0], r[:, 0, 1:], r[:, 1:, 0], r[:, 1:, 1:]
    n_tr = _sphere_argmax(b, shift)
    a_norm = np.linalg.norm(a, axis=1, keepdims=True)
    n_a = np.divide(np.copysign(1.0, r00)[:, None] * a, a_norm,
                    out=n_tr.copy(), where=a_norm > 0.0)
    cands = np.stack([n_a, n_tr], axis=1)
    vals = np.maximum(np.abs(r00[:, None] + (cands @ a[:, :, None])[:, :, 0]),
                      np.linalg.norm(shift[:, None] + cands @ b.swapaxes(1, 2),
                                     axis=2))
    best = (np.arange(len(r)), np.argmax(vals, axis=1))
    return vals[best], cands[best]


# ---------------------------------------------------------------------------
# alternating power-method ascent


def _rank_one(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stack of u v^dag for stacks of vectors u and v, shape (..., d)."""
    return u[..., :, None] * v.conj()[..., None, :]


def _hermitian_part(g: np.ndarray) -> np.ndarray:
    return (g + dagger(g)) / 2


def _pair_pick(g: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Top singular pair (u, v) of G, maximizing Re tr(G^dag u v^dag): v the top
    eigenvector of G^dag G and u = G v/||G v||, or u = v where G v = 0."""
    v = v[:, :, -1:]                        # a column, shape (rows, d, 1)
    norm = np.sqrt(np.maximum(w[:, -1:, None], 0.0))      # ||G v||^2 = w_max
    u = np.divide(g @ v, norm, out=v.copy(), where=norm > 0.0)
    return np.concatenate([u, v], axis=2).swapaxes(1, 2)


def _pair_input(x: np.ndarray) -> np.ndarray:
    """u v^dag for rows (u, v), and psi psi^dag for rows (psi)."""
    return _rank_one(x[:, 0], x[:, -1])


def _pure_pick(_, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eigenvector of (G + G^dag)/2 whose eigenvalue has the largest modulus."""
    bottom = np.abs(w[:, :1, None]) > np.abs(w[:, -1:, None])
    return np.where(bottom, v[:, None, :, 0], v[:, None, :, -1])


def _ortho_pick(_, __, v: np.ndarray) -> np.ndarray:
    """Top and bottom eigenvectors (phi, psi) of (G + G^dag)/2."""
    return v[:, :, ::1 - v.shape[-1]].swapaxes(1, 2)      # columns d - 1, 0


def _ortho_input(x: np.ndarray) -> np.ndarray:
    p = _rank_one(x, x)
    return 0.5 * (p[:, 0] - p[:, 1])


def _extrapolate(b0: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """The SQUAREM trial B0 - 2 alpha r + alpha^2 v of each row, with
    r = B1 - B0, v = B2 - 2 B1 + B0 and alpha = min(-||r||_F / ||v||_F, -1);
    v = 0 gives alpha = -1 and B2."""
    r, v = rv = np.array([b1 - b0, b2 - 2.0 * b1 + b0])
    r_norm, v_norm = np.sqrt(np.add.reduce((rv.conj() * rv).real, axis=(2, 3)))
    alpha = -np.maximum(np.divide(r_norm, v_norm, out=np.ones_like(r_norm),
                                  where=v_norm > 0.0), 1.0)[:, None, None]
    return b0 - 2.0 * alpha * r + alpha ** 2 * v


def _power_ascent(ms: np.ndarray, kinds, starts, maxiter: int) -> list:
    """Maximize ||L_p(X)||_1 over extreme points X for several problems p
    in one loop, one ascent per row.

    Problem p is the map ``ms[p]`` of kind ``kinds[p]`` (a key of
    ``_ASCENTS``) with the start stack ``starts[p]``, shape (rows, width,
    d), all on one d.  The rows, sorted once by kind, are kept compact and
    shrink only in a cycle where one met its stopping rule, so each kind's
    rows are one slice: a projection is one eigh of the rows' ``_ASCENTS``
    matrices and one SVD, each row's own map applied in a stacked product.

    A power step S moves X to the extreme point maximizing Re tr(G^dag X)
    for G = L^dag(W), W the polar part of L(X); as ||L(X')||_1 >=
    Re tr(W^dag L(X')) >= Re tr(W^dag L(X)) = ||L(X)||_1, it never lowers
    the objective.  A SQUAREM cycle (Varadhan & Roland 2008) takes
    x1 = S(x0), x2 = S(x1) and the trial x3 = step(:func:`_extrapolate`
    (B0, B1, B2)) on the extreme points B_k, free of the phases of eigen-
    and singular vectors, and keeps the better of x2 and x3 only if it
    gains over x0.  At most maxiter // 2 cycles run; a row stops once a
    cycle gains at most 1e-13 max(|f|, 1), and depends only on its own
    state, not on which rows share the batch.  Returns one (points,
    values, converged mask, objective evaluations) tuple per problem.
    """
    rank = [list(_ASCENTS).index(k) for k in kinds]
    order = np.argsort(rank, kind="stable")
    starts = [starts[p] for p in order]
    sizes = [len(x) for x in starts]
    kind = np.repeat(np.sort(rank), sizes)
    d = starts[0].shape[-1]
    # a width-1 row (psi) is held as (psi, psi)
    xs = np.concatenate([np.broadcast_to(x, (len(x), 2, d)) for x in starts])
    fs, evals = np.empty(len(xs)), np.full(len(xs), 1 + 3 * (maxiter // 2))
    converged = np.zeros(len(xs), dtype=bool)

    def spans_of(k):                        # (function, rows) of each step
        cuts = np.searchsorted(k, np.arange(len(_ASCENTS) + 1)).tolist()
        spans = [{}, {}, {}]                # matrix, pick and build spans
        for a, lo, hi in zip(_ASCENTS.values(), cuts, cuts[1:]):
            for span, f in zip(spans, a[1:] if hi > lo else ()):
                span.setdefault(f, [lo, hi])[1] = hi    # kinds sharing f are adjacent
        return [[(f, slice(*r)) for f, r in span.items()] for span in spans]

    def stacked(span, *args):               # each function on its own rows
        if len(span) == 1:
            return span[0][0](*args)
        return np.concatenate([f(*[a[r] for a in args]) for f, r in span])

    def apply(maps_t, mats):                # apply_batch, maps pre-transposed
        out = mats.swapaxes(1, 2).reshape(len(mats), 1, d * d) @ maps_t
        return out.reshape(len(mats), d, d).swapaxes(1, 2)

    def project(g):                         # x, B and the SVD of L(B)
        w, v = np.linalg.eigh(stacked(spans[0], g))
        x = np.empty((len(g), 2, d), dtype=complex)
        for f, r in spans[1]:               # a width-1 pick fills both
            x[r] = f(g[r], w[r], v[r])
        b = stacked(spans[2], x)
        return (x, b) + np.linalg.svd(apply(m, b))

    rows, ms = np.arange(len(xs)), ms[np.repeat(order, sizes)]
    m, mh, x, spans = ms.swapaxes(1, 2), ms.conj(), xs, spans_of(kind)
    b = stacked(spans[2], x)
    u, s, vh = np.linalg.svd(apply(m, b))
    f, w = s.sum(axis=1), u @ vh
    for cycle in range(maxiter // 2):
        _, b1, u1, _, vh1 = project(apply(mh, w))
        x2, b2, u2, s2, vh2 = project(apply(mh, u1 @ vh1))
        x3, b3, u3, s3, vh3 = project(_extrapolate(b, b1, b2))
        f2, f3 = s2.sum(axis=1), s3.sum(axis=1)
        pick = f3 > f2
        for y2, y3 in ((x2, x3), (b2, b3), (u2, u3), (vh2, vh3)):
            np.copyto(y2, y3, where=pick[:, None, None])
        np.copyto(f2, f3, where=pick)
        gain = f2 - f
        done = gain <= 1e-13 * np.maximum(np.abs(f2), 1.0)
        if done.any():                      # retire the rows that stopped
            gone, ok = rows[done], (gain > 0.0)[done]   # no gain: keep x0
            fs[gone] = np.where(ok, f2[done], f[done])
            xs[gone] = np.where(ok[:, None, None], x2[done], x[done])
            converged[gone], evals[gone] = True, 1 + 3 * (cycle + 1)
            keep = np.flatnonzero(~done)
            rows, m, mh, kind, x2, b2, u2, vh2, f2 = (
                a[keep] for a in (rows, m, mh, kind, x2, b2, u2, vh2, f2))
            spans = spans_of(kind)
        x, b, w, f = x2, b2, u2 @ vh2, f2    # W only for the rows kept
        if not len(rows):
            break
    xs[rows], fs[rows] = x, f
    out = [(xs[end - len(x):end, :x.shape[1]], fs[end - len(x):end],
            converged[end - len(x):end], int(evals[end - len(x):end].sum()))
           for x, end in zip(starts, np.cumsum(sizes))]
    return [out[i] for i in np.argsort(order)]


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
                            [kind for _, kind in problems], starts, maxiter)
    estimates = []
    for xs, fs, converged, evaluations in results:
        best = int(np.argmax(fs))
        conv_vals = fs[converged] if converged.any() else fs
        estimates.append(ContractionEstimate(
            value=float(fs[best]), method="multistart_manifold",
            restarts=restarts,
            best_witness=tuple(xs[best]) if xs.shape[1] > 1 else xs[best, 0],
            convergence_spread=float(conv_vals.max() - conv_vals.min()),
            evaluations=evaluations, converged=int(converged.sum())))
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


# (start, matrix, pick, build) of each kind's ascent, in _power_ascent's row
# order: one eigh of matrix(G) serves all rows, pick(G, w, v) takes a row's
# new point, shape (width, d), from its eigenpairs and build its extreme point
_ASCENTS = {
    "tau": (_ortho_start, _hermitian_part, _ortho_pick, _ortho_input),
    "hermitian": (functools.partial(_unit_vectors, k=1), _hermitian_part,
                  _pure_pick, _pair_input),
    "general": (functools.partial(_unit_vectors, k=2),
                lambda g: dagger(g) @ g, _pair_pick, _pair_input)}


def _closed_forms(problems) -> list:
    """The qubit closed form of each (map, kind) problem, or None where the
    ascent runs instead: at d >= 3, for a qubit map that does not preserve
    Hermiticity, and in general mode for a qubit map with a trace row.

    Every closed form is :func:`_hermitian_norm_qubit`, witness psi in
    Hermitian mode.  Each traceless Hermitian qubit input of unit trace norm
    is n.sigma/2 = psi psi^dag - I/2, so tau(T) is the Hermitian norm of
    T(X - tr(X) I/2), whose transfer matrix is R with column 0 zeroed (at
    d >= 3, psi psi^dag - I/d has trace norm 2(d - 1)/d, not 1); witness
    (phi, psi), the (+1, -1) eigenvectors of n.sigma.

    In general mode a Hermiticity-preserving (HP) qubit map whose outputs
    are all traceless (:func:`~qms.channels.annihilates_trace`), such as
    a difference of two channels or two generators, takes the Hermitian
    closed form too, witness (psi, psi), and it is exact there.  For a
    rank-one input u v^dag the output is traceless, L(u v^dag) = c.sigma,
    and a traceless 2 x 2 matrix M has

        ||M||_1 = max_theta ||(e^{-i theta} M + e^{i theta} M^dag)/2||_1

    (with M = (a + i b).sigma both sides are 2 max_theta
    ||cos(theta) a + sin(theta) b||_2).  As L is HP, the matrix inside is
    L(H_theta) for the Hermitian H_theta = (e^{-i theta} u v^dag
    + e^{i theta} v u^dag)/2, and ||H_theta||_1 <= 1.  So the general norm
    is at most the Hermitian one, and never below it, since every Hermitian
    input is admissible in general mode.  With a trace row of norm
    r = ||M^dag vec(I)||_2, |tr L(X)| <= r ||X||_1 and the same argument,
    applied to the traceless part of L(u v^dag), bounds the Hermitian form
    only to within 2 r below the general norm: such a map takes the ascent.

    One vectorized pass serves the distinct qubit maps of ``problems`` (all
    of one dimension, distinct by identity): one Choi stack, one HP test, one
    Pauli-transfer einsum, then one stacked Hermitian form over one row
    per distinct (map, is tau) pair, its ``hermitian`` and ``general``
    problems sharing a row, and one eigh for all witnesses.
    """
    out = [None] * len(problems)
    if not problems or problems[0][0].dim != 2:
        return out
    maps = {id(t): t for t, _ in problems}
    row = dict(zip(maps, range(len(maps))))
    ms = np.stack([t.matrix for t in maps.values()])
    hp = preserves_hermiticity(ms, choi_matrix(ms))[0]
    keys = {}                            # (map row, is tau) -> stack row
    closed = []                          # (problem, stack row, kind)
    for i, (t, kind) in enumerate(problems):
        k = row[id(t)]
        if hp[k] and (kind != "general" or annihilates_trace(t.matrix, 2)[0]):
            closed.append((i, keys.setdefault((k, kind == "tau"), len(keys)),
                           kind))
    if not closed:
        return out
    r = _pauli_transfer(ms)[[k for k, _ in keys]]
    r[[is_tau for _, is_tau in keys], :, 0] = 0.0
    values, n = _hermitian_norm_qubit(r)
    phis, psis = _bloch_eigenvectors(n)
    for i, j, kind in closed:
        phi, psi = phis[j], psis[j]
        witness = {"tau": (phi, psi), "hermitian": phi,
                   "general": (phi, phi)}[kind]
        out[i] = ContractionEstimate(value=float(values[j]), method="analytic",
                                     restarts=0, best_witness=witness,
                                     convergence_spread=0.0)
    return out


def estimate_batch(problems, restarts: int, seed: int) -> list:
    """One estimate per (map, kind) in ``problems``, all maps of one
    dimension; kind ``tau`` is :func:`tau`, and ``hermitian`` and
    ``general`` are :func:`norm_1to1` in that mode.  Maps of two
    dimensions, another kind and ``restarts`` < 1 are refused before any
    work.  The qubit closed forms run first, as one vectorized pass over
    the distinct qubit maps (:func:`_closed_forms`), each problem's equal
    bit for bit to that of a call of its own.  Every other problem becomes
    ``restarts`` rows of one :func:`_power_ascent`, seeded as in a call of
    its own, so its estimate equals the one-at-a-time value up to roundoff.
    """
    if len({t.dim for t, _ in problems}) > 1:
        raise DimensionError("estimate_batch: maps of more than one dimension")
    if bad := [kind for _, kind in problems if kind not in _ASCENTS]:
        raise ValidationError(f"estimate_batch: unknown kind {bad[0]!r}")
    _require_restarts(restarts)
    out = _closed_forms(problems)
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
    orthogonal pure-state pairs.  Hermiticity-preserving qubit maps take
    the Hermitian closed form of T(X - tr(X) I/2) (:func:`_closed_forms`;
    method ``analytic``, exact).  Otherwise ``restarts`` power-method
    ascents of at most ``MAXITER`` steps run over the pairs as the rows of
    a batch of one (:func:`_power_ascent`), restart r seeded with
    derive_seed(seed, r), so prefixes of the restart stream reproduce.
    ``restarts`` < 1 is refused even where the closed form ignores it.
    """
    return estimate_batch([(t, "tau")], restarts, seed)[0]


def norm_1to1(t: SuperOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0,
              hermitian_only: bool = False) -> ContractionEstimate:
    """Induced 1->1 norm sup ||L(X)||_1 / ||X||_1, as a lower-bound estimate.

    General mode ascends over rank-one X = u v^dag (the extreme points of
    the trace-norm ball; witness ``(u, v)``); ``hermitian_only`` restricts
    to Hermitian X, whose extreme points are +/- psi psi^dag (witness
    ``psi``).  The ``restarts`` seeded power-method ascents of at most
    ``MAXITER`` steps are the rows of a batch of one (:func:`_power_ascent`).
    A Hermiticity-preserving qubit map takes the exact closed form
    :func:`_hermitian_norm_qubit` instead (method ``analytic``; that of
    :func:`tau` at d = 2) in Hermitian mode, and in general mode where its
    outputs are all traceless, as the two norms then agree (witness
    ``(psi, psi)``; :func:`_closed_forms`).  The closed form ignores
    ``restarts``, but ``restarts`` < 1 is refused everywhere.
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
    pure-state projector psi psi^dag.  The unit vectors u, v and psi of all
    draws come from one ``complex_normals((PROBE_DRAWS, 3, d))`` call,
    normalised row by row.  Memoised on the arguments; the returned array
    is shared, hence read-only.
    """
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    z = SplitMix64(derive_seed(seed, 0xA11CE)).complex_normals((PROBE_DRAWS, 3, d))
    z = z / np.linalg.norm(z, axis=-1, keepdims=True)
    pairs = _rank_one(z[:, [0, 2]], z[:, [1, 2]])
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
