import functools

import numpy as np
import pytest

from qms import contraction
from qms.channels import (SuperOperator, amplitude_damping_channel,
                          completely_depolarizing, compose, depolarizing_channel,
                          from_kraus, from_stochastic, identity_channel,
                          pauli_channel)
from qms.ensembles import perturb_channel, perturb_generator, random_generator
from qms.contraction import (_ASCENTS, PROBE_DRAWS, _extrapolate,
                             _ortho_input, _ortho_start, _run_multistart,
                             _unit_vectors, estimate_batch, norm_1to1,
                             norm_lower_bound_probes, probe_inputs, tau)
from qms.errors import DimensionError, DomainError, ValidationError
from qms.linalg import apply_batch, trace_norm, vec
from qms.rng import SplitMix64, derive_seed
from qms.spectral import fundamental_map

PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
GOLDEN = np.pi * (3.0 - np.sqrt(5.0))


def random_channel(d, rank, seed):
    from qms.ensembles import random_channel as rc
    return rc(d, rank, seed)


def random_unitary_channel(d, seed):
    return random_channel(d, 1, seed)


# ---------------------------------------------------------------------------
# independent reference for qubit closed forms: a Bloch-sphere lattice search


def fibonacci_sphere(n):
    """n near-uniform unit vectors on S^2 (deterministic lattice)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(GOLDEN * i), r * np.sin(GOLDEN * i), z], axis=1)


def bloch_objective(t, dirs):
    """(1/2) ||T(n.sigma)||_1 for an (N, 3) stack of unit Bloch vectors n."""
    images = apply_batch(t.matrix, np.einsum("ni,ijk->njk", dirs, PAULIS[1:]))
    return 0.5 * np.linalg.svd(images, compute_uv=False).sum(axis=1)


def pure_state_objective(t, dirs):
    """||T((I + n.sigma)/2)||_1, the image of the pure state with Bloch vector n."""
    states = 0.5 * (PAULIS[0] + np.einsum("ni,ijk->njk", dirs, PAULIS[1:]))
    return np.linalg.svd(apply_batch(t.matrix, states), compute_uv=False).sum(axis=1)


def grid_oracle(t, objective=bloch_objective, n=4000, seeds=4, disk=64, rounds=16):
    """Best objective(t, n) over a Fibonacci lattice on the sphere, refined
    by shrinking sunflower lattices in the tangent plane around the best
    lattice points that lie at least 0.3 rad apart modulo n -> -n (which
    leaves the default objective, tau's, unchanged).  Every value is
    attained at an evaluated direction, so the result never exceeds the
    maximum over the sphere: tau(T) for the default objective, the
    Hermitian 1->1 norm for :func:`pure_state_objective`.
    """
    dirs = fibonacci_sphere(n)
    vals = objective(t, dirs)
    centers = []
    for k in np.argsort(vals)[::-1]:
        if all(abs(dirs[k] @ c) < np.cos(0.3) for c in centers):
            centers.append(dirs[k])
            if len(centers) == seeds:
                break
    c = np.array(centers)
    best = objective(t, c)
    j = np.arange(disk) + 0.5
    offsets = np.sqrt(j / disk)[:, None] * np.stack(
        [np.cos(GOLDEN * j), np.sin(GOLDEN * j)], axis=1)
    radius = 0.3
    for _ in range(rounds):
        axis = np.where(np.abs(c[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        u = axis - np.sum(axis * c, axis=1, keepdims=True) * c
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = np.cross(c, u)
        pts = c[:, None, :] + radius * (offsets[None, :, :1] * u[:, None, :]
                                        + offsets[None, :, 1:] * v[:, None, :])
        pts /= np.linalg.norm(pts, axis=2, keepdims=True)
        local = objective(t, pts.reshape(-1, 3)).reshape(len(c), disk)
        arg = local.argmax(axis=1)
        top = local[np.arange(len(c)), arg]
        better = top > best
        c[better] = pts[better, arg[better]]
        best[better] = top[better]
        radius /= 2.0
    return float(max(vals.max(), best.max()))


def from_pauli_transfer(r):
    """The qubit map with Pauli transfer matrix r: T(sigma_j) = sum_i r_ij sigma_i."""
    vecs = PAULIS.transpose(0, 2, 1).reshape(4, 4)     # column-stacked vec(sigma_i)
    return SuperOperator(2, 0.5 * vecs.T @ np.asarray(r, dtype=complex) @ vecs.conj())


def oracle_maps():
    maps = []
    for rank in (1, 2, 3, 4):
        for i in range(40):
            t = random_channel(2, rank, derive_seed(1000 + rank, i))
            maps += [t, fundamental_map(t)]
    maps += [identity_channel(2), completely_depolarizing(2),
             depolarizing_channel(0.3), amplitude_damping_channel(0.4),
             pauli_channel(0.1, 0.2, 0.3), from_stochastic([[0.9, 0.1], [0.3, 0.7]]),
             SuperOperator(2, 1.7 * random_channel(2, 3, seed=5).matrix),
             from_pauli_transfer([[1.0, 0.6, -0.5, 0.2], [0.0, 0.3, 0.1, 0.0],
                                  [0.0, 0.0, -0.2, 0.1], [0.0, 0.1, 0.0, 0.4]])]
    return maps


def plain_ascent(t, start, matrix, pick, build, restarts=8, seed=0, maxiter=300):
    """The plain power-method loop of one ``_ASCENTS`` entry, one step per
    objective evaluation, from the same starts; returns (best value,
    evaluations over restarts)."""
    seeds = np.uint64(derive_seed(seed, 0)) + np.arange(restarts, dtype=np.uint64)
    xs = start(SplitMix64(seeds), t.dim)
    m, mh = t.matrix, t.matrix.conj().T

    def evaluate(x):
        u, s, vh = np.linalg.svd(apply_batch(m, build(x)))
        return s.sum(axis=1), u @ vh

    fs, ws = evaluate(xs)
    evaluations = len(xs)
    converged = np.zeros(len(xs), dtype=bool)
    for _ in range(maxiter):
        act = np.nonzero(~converged)[0]
        if not len(act):
            break
        g = apply_batch(mh, ws[act])
        trial = pick(g, *np.linalg.eigh(matrix(g)))
        ft, wt = evaluate(trial)
        evaluations += len(act)
        gain = ft - fs[act]
        ok = gain > 0.0
        xs[act[ok]], fs[act[ok]], ws[act[ok]] = trial[ok], ft[ok], wt[ok]
        converged[act[gain <= 1e-13 * np.maximum(np.abs(fs[act]), 1.0)]] = True
    return float(fs.max()), evaluations


def ascent(t, kind, restarts=64, seed=0, maxiter=300):
    """The power ascent of ``kind``, reached directly, so also for the qubit
    maps that the public estimators send to a closed form."""
    return _run_multistart([(t, kind)], restarts, seed, maxiter)[0]


# B = diag(0.3, 0.5, 0.5) and r = (0.2, eps, eps): B^T r lies (nearly) in the
# bottom eigenvector of B^T B, the hard case of the trust-region step, with a
# degenerate top eigenvalue
HARD_CASE = [[0.1, 0.05, 0.0, -0.02], [0.2, 0.3, 0.0, 0.0],
             [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.5]]


def hard_case(eps):
    r = np.array(HARD_CASE)
    r[2:, 0] = eps
    return from_pauli_transfer(r)


def qubit_difference_maps():
    """Channel differences and hard cases for the Hermitian closed form."""
    maps = []
    for i in range(40):
        t1 = random_channel(2, 1 + i % 4, derive_seed(4000, i))
        t2 = random_channel(2, 1 + (i // 4) % 4, derive_seed(4001, i))
        maps.append(SuperOperator(2, t1.matrix - t2.matrix))
    pairs = [(depolarizing_channel(0.6), depolarizing_channel(0.5)),
             (depolarizing_channel(0.5), identity_channel(2)),
             (depolarizing_channel(0.9), depolarizing_channel(0.1)),
             (amplitude_damping_channel(0.4), amplitude_damping_channel(0.3)),
             (pauli_channel(0.1, 0.2, 0.3), pauli_channel(0.3, 0.2, 0.1))]
    maps += [SuperOperator(2, t1.matrix - t2.matrix) for t1, t2 in pairs]
    return maps + [hard_case(eps) for eps in (0.0, 1e-12, 1e-8)]


def test_tau_unitary_conjugation_is_one():
    for d, seed in [(2, 1), (3, 2)]:
        est = tau(random_unitary_channel(d, seed), restarts=8, seed=seed)
        assert est.value == pytest.approx(1.0, abs=1e-6)


def test_tau_completely_depolarizing_is_zero():
    est = tau(completely_depolarizing(2))
    assert est.value <= 1e-9


def test_tau_depolarizing_closed_form():
    for p in (0.25, 0.5, 0.8):
        est = tau(depolarizing_channel(p))
        assert est.value == pytest.approx(1.0 - p, abs=1e-9)
        assert est.method == "analytic"


def test_tau_qubit_grid_identity():
    t = from_kraus([np.eye(2)])
    est = tau(t)
    assert est.method == "analytic"
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert grid_oracle(t) == pytest.approx(1.0, abs=1e-9)


def test_tau_qubit_grid_depolarizing():
    t = depolarizing_channel(0.25)
    est = tau(t)
    assert est.method == "analytic"
    assert est.value == pytest.approx(0.75, abs=1e-12)
    assert grid_oracle(t) == pytest.approx(0.75, abs=1e-9)


def test_tau_qubit_grid_uniform_stochastic():
    # the embedded uniform chain sends every state to I/2, so its
    # contraction coefficient vanishes; the closed form, the grid oracle and
    # the multistart path at higher restart count must agree
    t = from_stochastic([[0.5, 0.5], [0.5, 0.5]])
    closed = tau(t)
    multi = ascent(t, "tau", restarts=32, seed=3)
    assert closed.method == "analytic"
    assert closed.value <= 1e-9
    assert grid_oracle(t) <= 1e-9
    assert abs(closed.value - multi.value) <= 1e-6


def test_tau_exact_qubit_matches_grid_oracle():
    maps = oracle_maps()
    assert len(maps) >= 300
    for t in maps:
        est = tau(t)
        assert est.method == "analytic"
        grid = grid_oracle(t)
        assert est.value >= grid - 1e-12
        assert est.value - grid <= 1e-6
        phi, psi = est.best_witness
        sigma = np.outer(phi, phi.conj()) - np.outer(psi, psi.conj())
        assert 0.5 * trace_norm(t.apply(sigma)) == pytest.approx(
            est.value, rel=1e-12, abs=1e-12)
        assert abs(np.vdot(phi, psi)) <= 1e-12


def test_tau_exact_qubit_pauli_transfer_closed_form():
    # tau(T) = max(||R[0,1:]||_2, ||R[1:,1:]||_op), since b.sigma maps to
    # a I + c.sigma with a = R[0,1:] b, c = R[1:,1:] b and
    # ||a I + c.sigma||_1 = 2 max(|a|, |c|); the shift term ||R[0,1:]||
    # attains the max in the last oracle map and, with its row scaled by 3,
    # in part of the seeded matrices
    r = np.array([[1.0, 0.6, -0.5, 0.2], [0.0, 0.3, 0.1, 0.0],
                  [0.0, 0.0, -0.2, 0.1], [0.0, 0.1, 0.0, 0.4]])
    rs = [r] + [SplitMix64(derive_seed(7700, i)).normals(16).reshape(4, 4)
                * [[1 + 2 * (i % 2)], [1], [1], [1]] for i in range(200)]
    by_shift = 0
    for r in rs:
        shift, block = np.linalg.norm(r[0, 1:]), np.linalg.norm(r[1:, 1:], 2)
        by_shift += shift > block
        t = from_pauli_transfer(r)
        est = tau(t)
        assert est.method == "analytic"
        assert est.value == pytest.approx(max(shift, block), rel=1e-12)
        phi, psi = est.best_witness
        gram = np.array([[np.vdot(x, y) for y in (phi, psi)] for x in (phi, psi)])
        assert np.abs(gram - np.eye(2)).max() <= 1e-12
        sigma = np.outer(phi, phi.conj()) - np.outer(psi, psi.conj())
        assert 0.5 * trace_norm(t.apply(sigma)) == pytest.approx(
            est.value, rel=1e-12, abs=1e-12)
    assert 0 < by_shift < len(rs)          # 105 of 201 here


def test_hermitian_norm_qubit_is_exact():
    maps = oracle_maps() + qubit_difference_maps()
    for t in maps:
        est = norm_1to1(t, hermitian_only=True)
        assert (est.method, est.restarts) == ("analytic", 0)
        grid = grid_oracle(t, pure_state_objective)
        assert est.value >= grid - 1e-12
        assert est.value - grid <= 1e-6
        reference = ascent(t, "hermitian").value
        assert est.value >= reference - 1e-12 * reference
        psi = est.best_witness
        assert trace_norm(t.apply(np.outer(psi, psi.conj()))) == pytest.approx(
            est.value, rel=1e-12, abs=1e-12)


def test_hermitian_norm_qubit_hard_case_closed_form():
    # B^T r = (0.06, 0, 0) misses the top eigenvalue 0.25 of B^T B, so
    # n = (0.06 / (0.25 - 0.09), sqrt(1 - 0.375^2), 0) and
    # ||r + B n||^2 = (0.2 + 0.3 * 0.375)^2 + 0.25 (1 - 0.375^2) = 0.3125
    est = norm_1to1(hard_case(0.0), hermitian_only=True)
    assert est.value == pytest.approx(np.sqrt(0.3125), rel=1e-12)
    # unital with a multiple of the identity for B: every direction is a
    # hard-case maximizer
    ddep = SuperOperator(2, depolarizing_channel(0.6).matrix
                         - depolarizing_channel(0.5).matrix)
    assert norm_1to1(ddep, hermitian_only=True).value == pytest.approx(0.1, rel=1e-12)


def test_hermitian_norm_non_hp_qubit_map_takes_the_ascent():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 0.5
    est = norm_1to1(SuperOperator(2, m), restarts=8, seed=0, hermitian_only=True)
    assert (est.method, est.restarts) == ("multistart_manifold", 8)
    psi = est.best_witness
    assert trace_norm(SuperOperator(2, m).apply(np.outer(psi, psi.conj()))) \
        == pytest.approx(est.value, abs=1e-12)


# ---------------------------------------------------------------------------
# certified reference for the qubit general-mode norm: branch and bound over
# spherical triangles


def icosahedron_faces():
    """The 20 faces of an icosahedron inscribed in S^2, shape (20, 3, 3)."""
    g = (1.0 + np.sqrt(5.0)) / 2.0
    base = np.array([[0.0, s1, s2 * g] for s1 in (1, -1) for s2 in (1, -1)])
    v = np.concatenate([np.roll(base, k, axis=1) for k in range(3)])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    near = np.isclose(v @ v.T, 1.0 / np.sqrt(5.0))       # the edges
    faces = [(i, j, k) for i in range(12) for j in range(i + 1, 12)
             for k in range(j + 1, 12) if near[i, j] and near[j, k] and near[i, k]]
    return v[np.array(faces)]


def split(v, mid):
    """The four children of each triangle, from its vertices ``v`` and the
    midpoints ``mid`` opposite them (or the values there)."""
    return np.concatenate([np.stack([v[:, 0], mid[:, 2], mid[:, 1]], axis=1),
                           np.stack([mid[:, 2], v[:, 1], mid[:, 0]], axis=1),
                           np.stack([mid[:, 1], mid[:, 0], v[:, 2]], axis=1), mid])


def certified_general_norm(t):
    """A certified upper bound on the general 1->1 norm of a qubit map.

    By duality ||T||_{1->1}^2 = max over unit n of f(n), the top eigenvalue
    of Q^0 + sum_j n_j Q^j with Q^j_kl = Re tr(A_k^dag A_l sigma_j) / 2 and
    A_k = T*(U_k) for U = (I, i sigma); f is convex on all of R^3.  A
    spherical triangle with vertices a, b, c lies in the hull of a, b, c and
    a/h, b/h, c/h, for h the distance of their plane from the origin, so the
    largest f there bounds f on the triangle.  Triangles whose bound may
    still exceed the best vertex value by more than 1e-10 relative are
    split in four, starting from the icosahedron.
    """
    a = apply_batch(t.matrix.conj().T,
                    np.concatenate([PAULIS[:1], 1j * PAULIS[1:]]))
    q = 0.5 * np.einsum("kba,lbc,jca->jkl", a.conj(), a, PAULIS).real

    def f(x):
        return np.linalg.eigvalsh(q[0] + np.einsum("...j,jkl->...kl", x, q[1:]))[..., -1]

    tris = icosahedron_faces()
    fv = f(tris)
    lower, upper_done = fv.max(), -np.inf
    while len(tris):
        nrm = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        h = np.abs(np.sum(nrm * tris[:, 0], axis=1)) / np.linalg.norm(nrm, axis=1)
        upper = np.maximum(fv.max(axis=1), f(tris / h[:, None, None]).max(axis=1))
        done = upper <= lower + 1e-10 * abs(lower)
        upper_done = max(upper_done, upper[done].max(initial=-np.inf))
        tris, fv = tris[~done], fv[~done]
        assert len(tris) <= 100_000
        mids = tris[:, [1, 2, 0]] + tris[:, [2, 0, 1]]   # opposite each vertex
        mids /= np.linalg.norm(mids, axis=2, keepdims=True)
        fm = f(mids)
        lower = max(lower, fm.max(initial=-np.inf))
        tris, fv = split(tris, mids), split(fv, fm)
    return float(np.sqrt(max(lower, upper_done)))


def general_norm_maps():
    """Channel differences of Kraus rank 1-4 (independent and 5% perturbed),
    arbitrary complex maps and four maps with known norms."""
    maps = []
    for rank in (1, 2, 3, 4):
        for i in range(30):
            t1 = random_channel(2, rank, derive_seed(7000 + rank, i))
            t2 = random_channel(2, 1 + i % 4, derive_seed(7100 + rank, i))
            t3 = perturb_channel(t1, 0.05, derive_seed(7200 + rank, i))
            maps += [SuperOperator(2, t1.matrix - t2.matrix),
                     SuperOperator(2, t1.matrix - t3.matrix)]
    gen = SplitMix64(7300)
    maps += [SuperOperator(2, gen.complex_normals((4, 4))) for _ in range(60)]
    transpose = from_pauli_transfer(np.diag([1.0, 1.0, -1.0, 1.0]))
    known = [(identity_channel(2), 1.0), (transpose, 1.0),
             (SuperOperator(2, depolarizing_channel(0.6).matrix
                            - depolarizing_channel(0.5).matrix), 0.1),
             (SuperOperator(2, np.zeros((4, 4), dtype=complex)), 0.0)]
    return maps, known


def test_general_norm_qubit_is_certified():
    # channel differences, the depolarizing difference and the zero map
    # preserve Hermiticity and have only traceless outputs, so they take the
    # Hermitian closed form; the complex maps, the identity and the
    # transpose take the 8-restart ascent
    maps, known = general_norm_maps()
    known_maps = [k for k, _ in known]
    analytic = maps[:240] + known_maps[2:]
    ascended = maps[240:] + known_maps[:2]
    assert (len(analytic), len(ascended)) == (242, 62)
    for t in analytic + ascended:
        est = norm_1to1(t, restarts=8, seed=0)
        if any(t is a for a in analytic):
            assert (est.method, est.restarts, est.convergence_spread) == (
                "analytic", 0, 0.0)
        else:
            assert (est.method, est.restarts) == ("multistart_manifold", 8)
        upper = certified_general_norm(t)
        assert est.value <= upper * (1.0 + 1e-12)
        assert upper - est.value <= 1e-9 * upper
        reference = ascent(t, "general").value
        assert est.value >= reference - 1e-12 * reference
        u, v = est.best_witness
        assert trace_norm(t.apply(np.outer(u, v.conj()))) == pytest.approx(
            est.value, rel=1e-12, abs=1e-300)
    for t, value in known:
        assert norm_1to1(t).value == pytest.approx(value, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_general_norm_qubit_near_the_hard_case_keeps_its_contract(eps):
    # near the hard case's continuum of maximizers the ascent still ends
    # within 1e-9 of the certified bound, attained at its witness and within
    # its budget of MAXITER // 2 cycles per restart
    t = hard_case(eps)
    est = norm_1to1(t)
    upper = certified_general_norm(t)
    assert est.method == "multistart_manifold"
    assert upper * (1.0 - 1e-9) <= est.value <= upper * (1.0 + 1e-12)
    u, v = est.best_witness
    assert trace_norm(t.apply(np.outer(u, v.conj()))) == pytest.approx(
        est.value, rel=1e-12)
    assert est.evaluations <= est.restarts * (1 + 3 * (contraction.MAXITER // 2))


def trace_row_maps(count, seed):
    """Channel differences plus a seeded X tr(.) term with Hermitian X:
    Hermiticity-preserving qubit maps with a nonzero trace row, which take
    the ascent in general mode."""
    maps = []
    for i in range(count):
        t1 = random_channel(2, 4, derive_seed(seed, i))
        t2 = (perturb_channel(t1, 0.05, derive_seed(seed + 1, i)) if i % 2
              else random_channel(2, 4, derive_seed(seed + 2, i)))
        x = SplitMix64(derive_seed(seed + 3, i)).complex_normals((2, 2))
        x = 0.1 * (x + x.conj().T)
        trace_term = np.outer(vec(x), vec(np.eye(2)))
        maps.append(SuperOperator(2, t1.matrix - t2.matrix + trace_term))
    return maps


def traceless_output_maps():
    """Hermiticity-preserving qubit maps with only traceless outputs:
    channel differences, generator differences and seeded Pauli transfer
    matrices with a zero first row, which are no differences of CP maps."""
    maps = []
    for i in range(10):
        t1 = random_channel(2, 1 + i % 4, derive_seed(7500, i))
        t2 = random_channel(2, 1 + (i + 1) % 4, derive_seed(7501, i))
        g1 = random_generator(2, 1 + i % 3, derive_seed(7502, i))
        g2 = (perturb_generator(g1, 0.05, derive_seed(7503, i)) if i % 2
              else random_generator(2, 2, derive_seed(7504, i)))
        r = SplitMix64(derive_seed(7505, i)).normals(16).reshape(4, 4)
        r[0] = 0.0
        maps += [SuperOperator(2, t1.matrix - t2.matrix),
                 SuperOperator(2, g1.matrix - g2.matrix), from_pauli_transfer(r)]
    return maps


def test_general_norm_of_traceless_output_maps_is_the_hermitian_closed_form():
    for t in traceless_output_maps():
        est = norm_1to1(t, restarts=8, seed=0)
        assert (est.method, est.restarts, est.evaluations) == ("analytic", 0, 0)
        upper = certified_general_norm(t)
        assert upper * (1.0 - 1e-9) <= est.value <= upper * (1.0 + 1e-12)
        u, v = est.best_witness
        assert u is v
        assert trace_norm(t.apply(np.outer(u, v.conj()))) == pytest.approx(
            est.value, rel=1e-12)


def test_general_norm_with_a_trace_row_takes_the_ascent():
    # a seeded full transfer matrix whose general norm exceeds its Hermitian
    # one by 10%: the closed form would be wrong here
    r = SplitMix64(derive_seed(7600, 14)).normals(16).reshape(4, 4)
    t = from_pauli_transfer(r)
    est = norm_1to1(t)
    assert est.method == "multistart_manifold"
    assert est.value >= 1.1 * norm_1to1(t, hermitian_only=True).value
    upper = certified_general_norm(t)
    assert upper * (1.0 - 1e-9) <= est.value <= upper * (1.0 + 1e-12)


@pytest.mark.parametrize("eps, method", [(1e-12, "analytic"),
                                         (1e-6, "multistart_manifold")])
def test_trace_row_tolerance_is_the_generator_rule(eps, method):
    # ||M^dag vec(I)||_2 = sqrt(2) eps, accepted up to 1e-10
    r = SplitMix64(derive_seed(7601, 0)).normals(16).reshape(4, 4)
    r[0] = [0.0, eps, 0.0, 0.0]
    assert norm_1to1(from_pauli_transfer(r)).method == method


def test_tau_witness_reproduces_value():
    t = random_channel(2, 4, seed=11)
    est = tau(t)
    phi, psi = est.best_witness
    sigma = np.outer(phi, phi.conj()) - np.outer(psi, psi.conj())
    from qms.linalg import trace_norm
    assert 0.5 * trace_norm(t.apply(sigma)) == pytest.approx(est.value, abs=1e-9)
    assert abs(np.vdot(phi, psi)) <= 1e-9


def test_tau_bounded_by_one_for_channels():
    for seed in range(5):
        t = random_channel(2, 4, derive_seed(7, seed))
        assert tau(t).value <= 1.0 + 1e-6


def test_tau_requires_hermiticity_preservation():
    # the closed form does; tau takes the ascent instead
    m = np.eye(4, dtype=complex)
    m[0, 1] = 0.5  # mixes coherences into populations asymmetrically
    bad = SuperOperator(2, m)
    est = tau(bad, restarts=8, seed=0)
    assert est.method == "multistart_manifold"
    assert est.value == ascent(bad, "tau", restarts=8, seed=0).value


def test_tau_equivalence_of_definitions_qubit():
    for seed in range(6):
        t = random_channel(2, 3, derive_seed(15, seed))
        closed = tau(t).value
        direct = ascent(t, "tau", restarts=24, seed=seed).value
        assert abs(closed - direct) <= 1e-6


def test_norm_1to1_positive_tp_map():
    t = random_channel(2, 4, seed=21)
    assert norm_1to1(t, restarts=16, seed=0).value == pytest.approx(1.0, abs=1e-6)
    assert norm_1to1(t, restarts=16, seed=0,
                     hermitian_only=True).value == pytest.approx(1.0, abs=1e-6)


def test_norm_1to1_depolarizing_minus_identity():
    p = 0.5
    d = SuperOperator(2, depolarizing_channel(p).matrix - np.eye(4))
    assert norm_1to1(d, restarts=16, seed=1).value == pytest.approx(p, abs=1e-9)
    assert norm_1to1(d, restarts=16, seed=1,
                     hermitian_only=True).value == pytest.approx(p, abs=1e-9)


def test_norm_1to1_depolarizing_difference():
    d = SuperOperator(2, depolarizing_channel(0.6).matrix
                      - depolarizing_channel(0.5).matrix)
    assert norm_1to1(d, restarts=16, seed=2).value == pytest.approx(0.1, abs=1e-9)


def test_norm_hermitian_never_exceeds_general():
    for seed in range(5):
        t1 = random_channel(2, 4, derive_seed(51, seed))
        t2 = random_channel(2, 4, derive_seed(52, seed))
        d = SuperOperator(2, t1.matrix - t2.matrix)
        general = norm_1to1(d, restarts=16, seed=seed).value
        herm = norm_1to1(d, restarts=16, seed=seed, hermitian_only=True).value
        assert herm <= general + 1e-6


def test_norm_witness_reproduces_value():
    t1 = random_channel(2, 4, seed=93)
    t2 = random_channel(2, 4, seed=94)
    d = SuperOperator(2, t1.matrix - t2.matrix)
    from qms.linalg import trace_norm
    est = norm_1to1(d, restarts=8, seed=0)
    u, v = est.best_witness
    assert trace_norm(d.apply(np.outer(u, v.conj()))) == pytest.approx(est.value,
                                                                       abs=1e-9)
    est_h = norm_1to1(d, restarts=8, seed=0, hermitian_only=True)
    psi = est_h.best_witness
    assert trace_norm(d.apply(np.outer(psi, psi.conj()))) == pytest.approx(
        est_h.value, abs=1e-9)


def test_restart_monotonicity():
    t1 = random_channel(3, 9, seed=61)
    t2 = random_channel(3, 9, seed=62)
    d = SuperOperator(3, t1.matrix - t2.matrix)
    for k in (4, 8, 16):
        small = norm_1to1(d, restarts=k, seed=9).value
        large = norm_1to1(d, restarts=2 * k, seed=9).value
        assert large >= small - 1e-12


def test_batched_streams_match_scalar_streams():
    seeds = np.array([0, 1, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    for draw in (lambda g: g.next_uint64(7), lambda g: g.normals(5),
                 lambda g: g.complex_normals((3, 2)), lambda g: g.complex_normals(4)):
        batched = SplitMix64(seeds)
        rows = [SplitMix64(int(s)) for s in seeds]
        for _ in range(2):                   # the streams keep their own state
            assert np.array_equal(draw(batched), np.stack([draw(g) for g in rows]))


def _sequential_starts(kind, d, restarts, seed):
    """Ascent starts drawn restart by restart, one generator each."""
    out = []
    for r in range(restarts):
        gen = SplitMix64(derive_seed(seed, r))
        if kind == "ortho":
            out.append(np.linalg.qr(gen.complex_normals((d, 2)))[0].T)
        else:
            x = gen.normals(2 * kind * d).reshape(kind, 2, d)
            z = x[:, 0] + 1j * x[:, 1]
            out.append(z / np.linalg.norm(z, axis=1, keepdims=True))
    return np.stack(out)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batched_starts_match_per_restart_draws(d):
    starts = {1: functools.partial(_unit_vectors, k=1),
              2: functools.partial(_unit_vectors, k=2), "ortho": _ortho_start}
    for restarts in (1, 4, 8, 64):
        for seed in range(60):
            seeds = np.uint64(derive_seed(seed, 0)) + np.arange(restarts,
                                                                 dtype=np.uint64)
            for kind, start in starts.items():
                assert np.array_equal(start(SplitMix64(seeds), d),
                                      _sequential_starts(kind, d, restarts, seed))


# ---------------------------------------------------------------------------
# invariants of the power-method ascent


def test_traceless_ascent_matches_qubit_closed_form():
    # the orthogonal-pair ascent must find the analytic optimum on qubits
    for rank in (1, 2, 3, 4):
        for i in range(10):
            t = random_channel(2, rank, derive_seed(2000 + rank, i))
            est = ascent(t, "tau", restarts=8, seed=i)
            closed = tau(t)
            assert est.method == "multistart_manifold"
            assert closed.method == "analytic"
            assert est.value == pytest.approx(closed.value, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("hermitian_only", [False, True])
def test_norm_never_decreases_with_maxiter(hermitian_only):
    t1 = random_channel(3, 4, seed=63)
    t2 = random_channel(3, 4, seed=64)
    d = SuperOperator(3, t1.matrix - t2.matrix)
    kind = "hermitian" if hermitian_only else "general"
    values = [ascent(d, kind, restarts=8, seed=5, maxiter=k).value
              for k in (1, 2, 5, 20, 300)]
    assert values == sorted(values)
    assert values[-1] == norm_1to1(d, restarts=8, seed=5,
                                   hermitian_only=hermitian_only).value


def qudit_work_set():
    """Seeded d = 3 channels of Kraus rank 1, 2, 3 and 9, and their differences."""
    chans = [random_channel(3, rank, derive_seed(3100 + rank, i))
             for rank in (1, 2, 3, 9) for i in range(2)]
    diffs = [SuperOperator(3, a.matrix - b.matrix)
             for a, b in zip(chans, chans[1:] + chans[:1])]
    return chans + diffs


def test_ascent_evaluations_are_deterministic():
    t = random_channel(3, 4, seed=71)
    d = SuperOperator(3, t.matrix - random_channel(3, 4, seed=72).matrix)
    for run in (lambda: tau(t, restarts=8, seed=3),
                lambda: norm_1to1(d, restarts=8, seed=3),
                lambda: norm_1to1(d, restarts=8, seed=3, hermitian_only=True)):
        first, second = run(), run()
        assert first.evaluations > 8
        assert first.evaluations == second.evaluations
        assert "evaluations" not in first.to_dict()
    closed = tau(depolarizing_channel(0.5))
    assert closed.method == "analytic" and closed.evaluations == 0


def test_accelerated_ascent_saves_a_quarter_of_the_evaluations():
    ours = plain = 0
    for t in qudit_work_set():
        for kind, steps in _ASCENTS.items():
            ours += _run_multistart([(t, kind)], 8, 5, 300)[0].evaluations
            plain += plain_ascent(t, *steps, restarts=8, seed=5)[1]
    assert ours <= 0.75 * plain


def test_ascent_started_at_an_optimum_stays_there():
    # every orthogonal pair is optimal for a unitary channel (tau = 1): each
    # restart stops after its first cycle, at the value it started from
    t = random_unitary_channel(3, seed=73)
    est = tau(t, restarts=4, seed=2)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.evaluations == 4 * (1 + 3)
    phi, psi = est.best_witness
    sigma = np.outer(phi, phi.conj()) - np.outer(psi, psi.conj())
    assert 0.5 * trace_norm(t.apply(sigma)) == pytest.approx(est.value, abs=1e-12)


def test_converged_counts_the_restarts_that_met_the_stopping_rule():
    # every restart on a unitary channel stops after its first cycle
    est = tau(random_unitary_channel(3, seed=73), restarts=4, seed=2)
    assert est.converged == est.restarts == 4
    assert list(est.to_dict()) == ["value", "method", "restarts",
                                   "convergence_spread"]
    closed = tau(depolarizing_channel(0.5))
    assert closed.method == "analytic" and closed.converged == 0


def test_every_projection_takes_one_eigh(count_linalg):
    # tau, hermitian and general rows alike: a projection takes one eigh
    # and one evaluating SVD, after the one SVD that evaluates the starts
    calls = count_linalg("svd", "eigh")
    estimate_batch(batch_problems(3), restarts=8, seed=4)
    assert calls["eigh"] == calls["svd"] - 1 > 0


def test_stationary_cycle_extrapolates_to_the_second_step():
    # a cycle whose steps return their start makes r = v = 0; alpha = -1
    # then gives B0 - 2 alpha r + alpha^2 v = B2, with no 0/0 along the
    # way, and so does a steady drift (v = 0, r != 0)
    b = _ortho_input(np.eye(3, dtype=complex)[None, :2])
    r = 0.25 * _ortho_input(np.eye(3, dtype=complex)[None, 1:])
    b0, step = np.concatenate([b, b]), np.concatenate([0.0 * r, r])
    b1, b2 = b0 + step, b0 + 2.0 * step
    with np.errstate(all="raise"):
        trial = _extrapolate(b0, b1, b2)
    assert np.array_equal(trial, b2)


def batch_problems(d):
    """Seeded channels of Kraus rank 1, 2, 3 and d^2 on the tau path, their
    differences in both norm modes and, at d = 3, a map that does not
    preserve Hermiticity on the tau path."""
    chans = [random_channel(d, rank, derive_seed(7800 + d, rank))
             for rank in (1, 2, 3, d * d)]
    diffs = [SuperOperator(d, a.matrix - b.matrix)
             for a, b in zip(chans, chans[1:] + chans[:1])]
    problems = ([(t, "tau") for t in chans] + [(t, "hermitian") for t in diffs]
                + [(t, "general") for t in diffs])
    if d == 3:
        m = random_channel(3, 3, seed=66).matrix.copy()
        m[0, 1] += 0.4
        problems.append((SuperOperator(3, m), "tau"))
    return problems


def one_at_a_time(t, kind, restarts, seed):
    if kind == "tau":
        return tau(t, restarts=restarts, seed=seed)
    return norm_1to1(t, restarts=restarts, seed=seed,
                     hermitian_only=kind == "hermitian")


def witness_value(t, kind, witness):
    if kind == "tau":
        phi, psi = witness
        return 0.5 * trace_norm(t.apply(np.outer(phi, phi.conj())
                                        - np.outer(psi, psi.conj())))
    if kind == "hermitian":
        return trace_norm(t.apply(np.outer(witness, witness.conj())))
    u, v = witness
    return trace_norm(t.apply(np.outer(u, v.conj())))


@pytest.mark.parametrize("d", [3, 4])
def test_batched_estimates_equal_one_at_a_time(d):
    problems = batch_problems(d)
    batched = estimate_batch(problems, restarts=8, seed=4)
    for (t, kind), est in zip(problems, batched):
        single = one_at_a_time(t, kind, 8, 4)
        assert est.value == pytest.approx(single.value, rel=1e-12)
        assert witness_value(t, kind, est.best_witness) == pytest.approx(
            est.value, rel=1e-12)
        assert (est.method, est.restarts) == ("multistart_manifold", 8)
        assert (est.method, est.restarts) == (single.method, single.restarts)
        shape = (d,) if kind == "hermitian" else (2, d)
        assert np.shape(est.best_witness) == np.shape(single.best_witness) == shape
        assert est.evaluations == single.evaluations


def test_batched_estimate_does_not_depend_on_its_companions():
    # the unitary problems' rows stop after one cycle, first, in the middle
    # and last of the rows, next to rows that run on
    unitary = random_unitary_channel(3, 73)
    rest = batch_problems(3)
    first, middle, last = [(unitary, kind) for kind in _ASCENTS]
    problems = rest + [first, middle, last]
    alone = [estimate_batch([p], restarts=8, seed=6)[0] for p in problems]
    for batch in (rest[::-1], rest[::2] + rest[1::2], rest + rest,
                  [first] + rest, rest[:6] + [middle] + rest[6:],
                  rest + [last]):
        for p, est in zip(batch, estimate_batch(batch, restarts=8, seed=6)):
            ref = alone[problems.index(p)]
            assert est.value == pytest.approx(ref.value, rel=1e-12)
            assert est.evaluations == ref.evaluations
            assert est.converged == ref.converged
    again = estimate_batch(problems, restarts=8, seed=6)
    assert [e.evaluations for e in again] == [e.evaluations for e in alone]
    assert [e.evaluations for e in alone[-3:]] == [8 * (1 + 3)] * 3


def pinned_batch(d):
    """batch_problems(d) with a unitary channel, whose rows all stop after
    one cycle, first, in the middle and last."""
    u = random_unitary_channel(d, 73)
    problems = batch_problems(d)
    k = len(problems) // 2
    return ([(u, "general")] + problems[:k] + [(u, "tau"), (u, "hermitian")]
            + problems[k:] + [(u, "general")])


# (value, evaluations, converged, convergence_spread) of each estimate of
# estimate_batch(pinned_batch(d), restarts=8, seed=9), floats as float.hex
PINNED = {
    3: [
        ("0x1.0000000000004p+0", 32, 8, "0x1.0000000000000p-50"),
        ("0x1.0000000000002p+0", 32, 8, "0x1.4000000000000p-51"),
        ("0x1.0000000000002p+0", 311, 8, "0x1.7400000000000p-47"),
        ("0x1.d1bac7a1f3104p-1", 290, 8, "0x1.8cf6721145338p-4"),
        ("0x1.0a59935aa1eb3p-1", 251, 8, "0x1.7571600602840p-6"),
        ("0x1.0000000000002p+1", 710, 8, "0x1.3cb175489b900p-6"),
        ("0x1.e51ebda512f5dp+0", 197, 8, "0x1.08d8d05d582e8p-3"),
        ("0x1.0000000000002p+0", 32, 8, "0x1.0000000000000p-51"),
        ("0x1.0000000000004p+0", 32, 8, "0x1.0000000000000p-50"),
        ("0x1.5cc19b5d375c7p+0", 194, 8, "0x1.2844a431d5b38p-3"),
        ("0x1.d3e7d2f9e35dcp+0", 302, 8, "0x1.a739e8ecbeb88p-3"),
        ("0x1.0000000000000p+1", 914, 8, "0x1.3cb1754893a40p-6"),
        ("0x1.e51ebda512f56p+0", 206, 8, "0x1.8f21305f2a180p-4"),
        ("0x1.5cc19b5d375c8p+0", 209, 8, "0x1.e0cdffe33c600p-9"),
        ("0x1.d3e7d2f9e35d9p+0", 341, 8, "0x1.a739e8ecbeb30p-3"),
        ("0x1.00cea51118783p+0", 188, 8, "0x1.8000000000000p-51"),
        ("0x1.0000000000004p+0", 32, 8, "0x1.0000000000000p-50")],
    4: [
        ("0x1.0000000000003p+0", 32, 8, "0x1.8000000000000p-51"),
        ("0x1.0000000000004p+0", 32, 8, "0x1.8000000000000p-51"),
        ("0x1.0000000000004p+0", 194, 8, "0x1.2000000000000p-47"),
        ("0x1.f8adc2c40e7dbp-1", 593, 8, "0x1.f030f5e33f600p-10"),
        ("0x1.12c796b6fe664p-1", 341, 8, "0x1.2de0c6f07c96cp-4"),
        ("0x1.fffffffffffdep+0", 1454, 7, "0x1.5c70000000000p-40"),
        ("0x1.f23f45861ab8cp+0", 239, 8, "0x1.14fd1369de268p-3"),
        ("0x1.0000000000004p+0", 32, 8, "0x1.0000000000000p-50"),
        ("0x1.0000000000004p+0", 32, 8, "0x1.0000000000000p-50"),
        ("0x1.673fc284dfba1p+0", 290, 8, "0x1.1748e0cb12190p-4"),
        ("0x1.d9b7a9112a6aep+0", 404, 8, "0x1.7faf78397ca00p-5"),
        ("0x1.fffffffffffc2p+0", 605, 8, "0x1.0b00000000000p-42"),
        ("0x1.f23f45c7b31c8p+0", 923, 8, "0x1.47d7ab0985000p-6"),
        ("0x1.728c9c6f899eep+0", 314, 8, "0x1.699b3d553c9a0p-5"),
        ("0x1.d9b7a9112a6acp+0", 410, 8, "0x1.7faf78398ee00p-5"),
        ("0x1.0000000000003p+0", 32, 8, "0x1.8000000000000p-51")],
}


@pytest.mark.parametrize("d", [3, 4])
def test_ascent_outputs_are_pinned(d):
    # rows that stop in the first cycle, later and never (the d = 4 row
    # with 7 of 8 converged runs all MAXITER steps)
    out = estimate_batch(pinned_batch(d), restarts=8, seed=9)
    assert len(out) == len(PINNED[d])
    for est, (value, evaluations, converged, spread) in zip(out, PINNED[d]):
        value = float.fromhex(value)
        assert (est.evaluations, est.converged) == (evaluations, converged)
        assert est.value == pytest.approx(value, rel=1e-14)
        assert est.convergence_spread == pytest.approx(
            float.fromhex(spread), rel=1e-14, abs=2e-14 * value)


def test_batch_refuses_maps_of_two_dimensions(count_calls):
    closed = count_calls(contraction, "_closed_forms")
    ascents = count_calls(contraction, "_power_ascent")
    t2 = random_channel(2, 4, 1)
    t3, t4 = random_channel(3, 9, 1), random_channel(4, 16, 2)
    for batch in ([(t3, "tau"), (t4, "general")],
                  [(t2, "tau"), (t3, "hermitian")]):
        with pytest.raises(DimensionError):
            estimate_batch(batch, restarts=2, seed=0)
    assert (closed, ascents) == ([], [])


def test_batch_refuses_an_unknown_kind(count_calls):
    closed = count_calls(contraction, "_closed_forms")
    ascents = count_calls(contraction, "_power_ascent")
    for d in (2, 3):
        t = random_channel(d, d * d, 1)
        with pytest.raises(ValidationError, match="'diamond'"):
            estimate_batch([(t, "tau"), (t, "diamond")], restarts=2, seed=0)
    assert (closed, ascents) == ([], [])


def test_batch_runs_closed_forms_per_problem_and_one_ascent(count_calls):
    ascents = count_calls(contraction, "_power_ascent")
    t = random_channel(2, 4, seed=67)
    d = SuperOperator(2, t.matrix - random_channel(2, 4, seed=68).matrix)
    m = t.matrix.copy()
    m[0, 1] += 0.4
    non_hp = SuperOperator(2, m)
    out = estimate_batch([(t, "tau"), (d, "general"), (d, "hermitian"),
                           (non_hp, "hermitian"), (t, "hermitian")],
                          restarts=8, seed=2)
    assert [e.method for e in out] == ["analytic", "analytic", "analytic",
                                       "multistart_manifold", "analytic"]
    assert len(ascents) == 1 and len(ascents[0][2]) == 1
    assert out[3].value == norm_1to1(non_hp, restarts=8, seed=2,
                                     hermitian_only=True).value


def test_qubit_batch_matches_one_problem_calls():
    # the vectorized closed forms give each problem what a call of its own
    # gives: an HP channel, a channel difference, a generator difference,
    # a map with a trace row and a non-HP map, each asked in several kinds
    t = random_channel(2, 4, seed=71)
    diff = SuperOperator(2, t.matrix - random_channel(2, 3, seed=72).matrix)
    g1 = random_generator(2, 2, derive_seed(7505, 0))
    g2 = perturb_generator(g1, 0.05, derive_seed(7506, 0))
    gdiff = SuperOperator(2, g1.matrix - g2.matrix)
    [trace_row] = trace_row_maps(1, 7507)
    m = t.matrix.copy()
    m[0, 1] += 0.4
    non_hp = SuperOperator(2, m)
    # the Hermitian form of hard_case(0.0) takes the hard case and that of
    # hard_case(1e-8) the Newton step; both have a trace row, so their
    # general norms take the ascent
    hard, near = hard_case(0.0), hard_case(1e-8)
    problems = [(t, "tau"), (diff, "general"), (gdiff, "hermitian"),
                (trace_row, "general"), (non_hp, "general"),
                (t, "hermitian"), (non_hp, "tau"), (gdiff, "general"),
                (trace_row, "tau"), (t, "general"), (diff, "hermitian"),
                (gdiff, "tau"), (non_hp, "hermitian"), (t, "tau"),
                (hard, "hermitian"), (near, "general"), (hard, "general"),
                (near, "hermitian")]
    batch = estimate_batch(problems, restarts=4, seed=3)
    assert [e.method for e in batch] == (
        ["analytic", "analytic", "analytic", "multistart_manifold",
         "multistart_manifold", "analytic", "multistart_manifold", "analytic",
         "analytic", "multistart_manifold", "analytic", "analytic",
         "multistart_manifold", "analytic", "analytic", "multistart_manifold",
         "multistart_manifold", "analytic"])
    for p, est in zip(problems, batch):
        alone = estimate_batch([p], restarts=4, seed=3)[0]
        assert est.method == alone.method
        if est.method == "multistart_manifold":
            assert est.value == pytest.approx(alone.value, rel=1e-12)
            continue
        assert est.value == alone.value
        assert est.evaluations == alone.evaluations
        assert np.array_equal(est.best_witness, alone.best_witness)


def test_qubit_closed_forms_are_one_stacked_pass(count_calls, count_linalg):
    # tau, hermitian and general problems on two channels and two
    # traceless-output differences share one Hermitian closed form over
    # one row per distinct (map, is tau) pair and one witness eigh; the
    # only SVD is the stacked Hermiticity test
    closed = count_calls(contraction, "_hermitian_norm_qubit")
    witnesses = count_calls(contraction, "_bloch_eigenvectors")
    t1, t2 = random_channel(2, 4, seed=81), random_channel(2, 2, seed=82)
    diff = SuperOperator(2, t1.matrix - t2.matrix)
    g1 = random_generator(2, 2, derive_seed(7801, 0))
    gdiff = SuperOperator(2, g1.matrix
                          - perturb_generator(g1, 0.05, derive_seed(7802, 0)).matrix)
    problems = [(t1, "tau"), (diff, "hermitian"), (gdiff, "general"),
                (t2, "tau"), (diff, "general"), (gdiff, "tau"),
                (gdiff, "hermitian"), (t1, "tau")]
    calls = count_linalg("svd", "eigh")
    out = estimate_batch(problems, restarts=4, seed=0)
    assert {e.method for e in out} == {"analytic"}
    assert (len(closed), len(witnesses)) == (1, 1)
    assert closed[0][0].shape == (5, 4, 4)
    assert (calls["svd"], calls["eigh"]) == (1, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_every_estimate_refuses_restarts_below_one(d):
    # also where a closed form would ignore restarts
    t = random_channel(d, 4, seed=69)
    for run in (lambda: tau(t, restarts=0), lambda: norm_1to1(t, restarts=0),
                lambda: norm_1to1(t, restarts=0, hermitian_only=True),
                lambda: estimate_batch([(t, "tau"), (t, "general")], 0, 0)):
        with pytest.raises(DomainError):
            run()


def test_tau_d3_needs_no_hermiticity_preservation():
    m = random_channel(3, 3, seed=65).matrix.copy()
    m[0, 1] += 0.4                     # breaks Hermiticity preservation
    t = SuperOperator(3, m)
    est = tau(t, restarts=8, seed=1)
    phi, psi = est.best_witness
    sigma = np.outer(phi, phi.conj()) - np.outer(psi, psi.conj())
    assert 0.5 * trace_norm(t.apply(sigma)) == pytest.approx(est.value, abs=1e-12)
    assert abs(np.vdot(phi, psi)) <= 1e-12


# ---------------------------------------------------------------------------
# classical chains: exact d >= 3 references


def random_stochastic(d, seed):
    s = SplitMix64(seed).uniforms(d * d).reshape(d, d) + 0.05
    return s / s.sum(axis=1, keepdims=True)


def dobrushin(s):
    """(1/2) max_{i,j} ||S_i - S_j||_1 over the rows of s."""
    return 0.5 * np.abs(s[:, None, :] - s[None, :, :]).sum(axis=2).max()


def test_norms_of_embedded_chain_differences_are_exact():
    """Both norm modes of L = from_stochastic(S1) - from_stochastic(S2)
    equal max_i sum_j |S1 - S2|_ij.

    L is the chain difference after the pinch X -> sum_i X_ii |i><i|: it
    annihilates off-diagonal inputs and maps X to sum_ij (S1 - S2)_ij X_ii
    |j><j|, so ||L(X)||_1 <= sum_i |X_ii| sum_j |S1 - S2|_ij, at most the
    largest row sum of |S1 - S2| times ||X||_1, as sum_i |X_ii| <= ||X||_1.
    The input |k><k| of the largest row k, Hermitian and rank one, attains
    it in both modes.
    """
    for d in range(3, 7):
        for i in range(15):
            s1 = random_stochastic(d, derive_seed(5100 + d, i))
            s2 = random_stochastic(d, derive_seed(5200 + d, i))
            exact = np.abs(s1 - s2).sum(axis=1).max()
            diff = SuperOperator(d, from_stochastic(s1).matrix
                                 - from_stochastic(s2).matrix)
            for hermitian_only in (False, True):
                few, full = (norm_1to1(diff, restarts=r, seed=i,
                                       hermitian_only=hermitian_only).value
                             for r in (8, 64))
                assert max(few, full) <= exact * (1.0 + 1e-12)
                assert full == pytest.approx(exact, rel=1e-12)


def test_zero_map_estimates_are_zero_with_unit_witnesses():
    # every projection of the d = 3 zero map sees G = 0, and the general
    # pick's G v = 0 with it
    t = SuperOperator(3, np.zeros((9, 9)))
    for est in (tau(t), norm_1to1(t), norm_1to1(t, hermitian_only=True)):
        assert est.value == 0.0
        for w in np.reshape(est.best_witness, (-1, 3)):
            assert np.isfinite(w).all()
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_probe_bounds_of_classical_chains_are_exact(d):
    """For T = from_stochastic(S) and n >= 1, (T^n - T^inf)(X) is
    sum_i X_ii sum_j ((S^n)_ij - pi_j) |j><j|, so ||T^n - T^inf||_{1->1}
    is max_i ||(S^n)_i - pi||_1, attained at the probe E_ii.  At n = 0,
    I - T^inf sends E_ii to E_ii - diag(pi), of trace norm 2(1 - pi_i), and
    the off-diagonal units to themselves, of trace norm 1."""
    from qms.finite_time import _probe_bounds
    for i in range(3):
        s = random_stochastic(d, derive_seed(7100 + d, i))
        w, v = np.linalg.eig(s.T)
        pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        pi /= pi.sum()
        exact = [max(2.0 * (1.0 - pi.min()), 1.0)]
        power = np.eye(d)
        for _ in range(200):
            power = power @ s
            exact.append(np.abs(power - pi).sum(axis=1).max())
        t = from_stochastic(s)
        bounds = _probe_bounds(t, t, 201, i)
        np.testing.assert_allclose(bounds, exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_tau_of_classical_chains_is_dobrushin(d):
    for i in range(10):
        s = random_stochastic(d, derive_seed(3000 + d, i))
        t = from_stochastic(s)
        assert tau(t, seed=i).value == pytest.approx(dobrushin(s), abs=1e-10)
        # diagonal inputs are admissible and Z(T) acts as the identity on
        # coherences, so max(1, tau_1(Z_cl)) bounds tau(Z(T)) from below
        w, v = np.linalg.eig(s.T)
        pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        pi /= pi.sum()
        z_cl = np.linalg.inv(np.eye(d) - s + np.outer(np.ones(d), pi))
        kappa = tau(fundamental_map(t), seed=i).value
        assert kappa >= max(1.0, dobrushin(z_cl)) - 1e-10


@pytest.mark.parametrize("d", [3, 4, 5])
def test_kappa_of_classical_chains_is_at_least_seneta(d):
    """kappa(from_stochastic(S)) >= Seneta's tau_1(Z_cl), where Z_cl = (I - S
    + 1 pi)^-1 is the classical fundamental matrix: diagonal inputs are
    admissible, and on them Z(T) acts as Z_cl (Seneta 1988).  Unlike the
    check above, at the default 64 restarts and 1e-10 absolute, this one
    holds the ascent to the classical value at 16 restarts and to roundoff
    relative to it (on these chains kappa exceeds it by up to 4.2%)."""
    for i in range(4):
        s = random_stochastic(d, derive_seed(5300 + d, i))
        w, v = np.linalg.eig(s.T)
        pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        pi /= pi.sum()
        tau_1 = dobrushin(np.linalg.inv(np.eye(d) - s + np.outer(np.ones(d), pi)))
        kappa = tau(fundamental_map(from_stochastic(s)), restarts=16, seed=i).value
        assert kappa >= tau_1 * (1.0 - 1e-12)


def tau_of_powers(t, n_max, restarts=64, seed=0):
    """Rows (n, tau(L^n), tau(L)^n) for n = 1..n_max, each checked for
    submultiplicativity; a violation would be an estimator defect."""
    tau1 = tau(t, restarts=restarts, seed=seed).value
    power = np.eye(t.dim ** 2, dtype=complex)
    rows = []
    for n in range(1, n_max + 1):
        power = power @ t.matrix
        tau_n = tau(SuperOperator(t.dim, power), restarts=restarts,
                    seed=derive_seed(seed, n)).value
        assert tau_n <= tau1 ** n + 1e-6, n
        rows.append((n, tau_n, tau1 ** n))
    return rows


def test_tau_of_powers_depolarizing():
    rows = tau_of_powers(depolarizing_channel(0.5), n_max=3)
    assert rows[2][0] == 3
    assert rows[2][1] == pytest.approx(0.125, abs=1e-9)
    assert rows[2][2] == pytest.approx(0.125, abs=1e-9)


def test_tau_of_powers_unitary():
    rows = tau_of_powers(random_unitary_channel(2, 3), n_max=3)
    for _, tau_n, tau_pow in rows:
        assert tau_n == pytest.approx(1.0, abs=1e-6)
        assert tau_pow == pytest.approx(1.0, abs=1e-6)


def test_tau_submultiplicative_random_qubits():
    for seed in range(6):
        l1 = random_channel(2, 4, derive_seed(71, seed))
        l2 = random_channel(2, 4, derive_seed(72, seed))
        lhs = tau(compose(l1, l2)).value
        assert lhs <= tau(l1).value * tau(l2).value + 1e-6


def test_tau_powers_check_random_qubit():
    t = random_channel(2, 4, seed=81)
    rows = tau_of_powers(t, n_max=2)
    for _, tau_n, tau_pow in rows:
        assert tau_n <= tau_pow + 1e-6


def test_probe_lower_bound_below_optimized():
    t1 = random_channel(2, 4, seed=91)
    t2 = random_channel(2, 4, seed=92)
    dmat = t1.matrix - t2.matrix
    probes = probe_inputs(2, seed=0)
    low = norm_lower_bound_probes(dmat, probes)
    est = norm_1to1(SuperOperator(2, dmat), restarts=16, seed=0).value
    assert low <= est + 1e-9
    # probes include the matrix units, so the depolarizing difference is hit
    ddep = depolarizing_channel(0.6).matrix - depolarizing_channel(0.5).matrix
    assert norm_lower_bound_probes(ddep, probes) == pytest.approx(0.1, abs=1e-12)


def _sequential_probes(d, seed):
    """The probe set built draw by draw: the matrix units, then u v^dag and
    psi psi^dag of each row of one complex_normals((PROBE_DRAWS, 3, d))
    draw, each row normalised."""
    probes = list(np.eye(d * d, dtype=complex).reshape(d * d, d, d))
    z = SplitMix64(derive_seed(seed, 0xA11CE)).complex_normals((PROBE_DRAWS, 3, d))
    for u, v, psi in z / np.linalg.norm(z, axis=-1, keepdims=True):
        probes += [np.outer(u, v.conj()), np.outer(psi, psi.conj())]
    return np.array(probes)


@pytest.mark.parametrize("seed", [0, 1, 64])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_probe_inputs_match_sequential_draws(d, seed):
    probes = probe_inputs.__wrapped__(d, seed=seed)
    assert probes.shape == (d * d + 2 * PROBE_DRAWS, d, d)
    assert np.array_equal(probes, _sequential_probes(d, seed))
    norms = np.linalg.svd(probes, compute_uv=False).sum(axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-14
    assert np.array_equal(probe_inputs.__wrapped__(d, seed=seed), probes)


def test_probe_inputs_memoised_and_read_only():
    probes = probe_inputs(3, seed=5)
    assert probe_inputs(3, seed=5) is probes
    assert not probes.flags.writeable
    with pytest.raises(ValueError):
        probes[0, 0, 0] = 2.0
    assert np.array_equal(probes, probe_inputs.__wrapped__(3, seed=5))
