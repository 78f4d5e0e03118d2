import functools

import numpy as np
import pytest

from qms import contraction
from qms.channels import (SuperOperator, amplitude_damping_channel,
                          completely_depolarizing, compose, depolarizing_channel,
                          from_kraus, from_stochastic, identity_channel,
                          pauli_channel)
from qms.ensembles import perturb_channel
from qms.contraction import (_ASCENTS, PROBE_DRAWS, _ortho_input,
                             _ortho_start, _power_ascent, _run_multistart,
                             _unit_vectors, estimate_batch, norm_1to1,
                             norm_lower_bound_probes, probe_inputs, tau,
                             tau_exact_qubit)
from qms.errors import DimensionError, DomainError
from qms.linalg import apply_batch, trace_norm
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
    images = t.apply_batch(np.einsum("ni,ijk->njk", dirs, PAULIS[1:]))
    return 0.5 * np.linalg.svd(images, compute_uv=False).sum(axis=1)


def pure_state_objective(t, dirs):
    """||T((I + n.sigma)/2)||_1, the image of the pure state with Bloch vector n."""
    states = 0.5 * (PAULIS[0] + np.einsum("ni,ijk->njk", dirs, PAULIS[1:]))
    return np.linalg.svd(t.apply_batch(states), compute_uv=False).sum(axis=1)


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


def plain_ascent(t, start, step, build, restarts=8, seed=0, maxiter=300):
    """The plain power-method loop, one step per objective evaluation, from
    the same starts; returns (best value, evaluations over restarts)."""
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
        trial = step(apply_batch(mh, ws[act]))
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
    est = tau_exact_qubit(t)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert grid_oracle(t) == pytest.approx(1.0, abs=1e-9)


def test_tau_qubit_grid_depolarizing():
    t = depolarizing_channel(0.25)
    assert tau_exact_qubit(t).value == pytest.approx(0.75, abs=1e-12)
    assert grid_oracle(t) == pytest.approx(0.75, abs=1e-9)


def test_tau_qubit_grid_uniform_stochastic():
    # the embedded uniform chain sends every state to I/2, so its
    # contraction coefficient vanishes; the closed form, the grid oracle and
    # the multistart path at higher restart count must agree
    t = from_stochastic([[0.5, 0.5], [0.5, 0.5]])
    closed = tau_exact_qubit(t)
    multi = ascent(t, "tau", restarts=32, seed=3)
    assert closed.value <= 1e-9
    assert grid_oracle(t) <= 1e-9
    assert abs(closed.value - multi.value) <= 1e-6


def test_tau_exact_qubit_matches_grid_oracle():
    maps = oracle_maps()
    assert len(maps) >= 300
    for t in maps:
        est = tau_exact_qubit(t)
        grid = grid_oracle(t)
        assert est.value >= grid - 1e-12
        assert est.value - grid <= 1e-6
        phi, psi = est.best_witness
        sigma = np.outer(phi, phi.conj()) - np.outer(psi, psi.conj())
        assert 0.5 * trace_norm(t.apply(sigma)) == pytest.approx(
            est.value, rel=1e-12, abs=1e-12)
        assert abs(np.vdot(phi, psi)) <= 1e-12


def test_tau_exact_qubit_pauli_transfer_closed_form():
    # the shift term ||R[0,1:]|| attains the max in the last oracle map
    r = np.array([[1.0, 0.6, -0.5, 0.2], [0.0, 0.3, 0.1, 0.0],
                  [0.0, 0.0, -0.2, 0.1], [0.0, 0.1, 0.0, 0.4]])
    expected = max(np.linalg.norm(r[0, 1:]), np.linalg.norm(r[1:, 1:], 2))
    assert expected == pytest.approx(np.linalg.norm(r[0, 1:]))
    est = tau_exact_qubit(from_pauli_transfer(r))
    assert est.value == pytest.approx(expected, rel=1e-12)


def test_tau_exact_qubit_requires_hermiticity_preservation():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(DomainError):
        tau_exact_qubit(SuperOperator(2, m))


def test_tau_qubit_grid_rejects_other_dims():
    with pytest.raises(DimensionError):
        tau_exact_qubit(random_channel(3, 9, seed=1))


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
    maps, known = general_norm_maps()
    assert len(maps) + len(known) >= 300
    for t in maps + [k for k, _ in known]:
        est = norm_1to1(t, restarts=8, seed=0)
        assert (est.method, est.restarts, est.convergence_spread) == (
            "dual_sphere", 0, 0.0)
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


def test_general_norm_qubit_evaluations_are_deterministic():
    # 42 icosphere points plus 4 per polish step, with no seed dependence;
    # on channel differences below 3/4 of the 8-restart ascent's count
    ours = theirs = 0
    for i in range(20):
        t1 = random_channel(2, 4, derive_seed(7400, i))
        t2 = (perturb_channel(t1, 0.05, derive_seed(7401, i)) if i % 2
              else random_channel(2, 4, derive_seed(7402, i)))
        d = SuperOperator(2, t1.matrix - t2.matrix)
        first, second = norm_1to1(d, restarts=8, seed=0), norm_1to1(d, restarts=8, seed=i)
        assert first.evaluations == second.evaluations
        assert first.evaluations > 42 and (first.evaluations - 42) % 4 == 0
        ours += first.evaluations
        theirs += ascent(d, "general", restarts=8).evaluations
    assert "evaluations" not in first.to_dict()
    assert ours <= 0.75 * theirs


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
    m = np.eye(4, dtype=complex)
    m[0, 1] = 0.5  # mixes coherences into populations asymmetrically
    bad = SuperOperator(2, m)
    with pytest.raises(DomainError):
        tau(bad)
    est = ascent(bad, "tau", restarts=8, seed=0)
    assert est.value >= 0.0


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
            assert est.method == "multistart_manifold"
            assert est.value == pytest.approx(tau_exact_qubit(t).value,
                                              rel=1e-10, abs=1e-10)


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
    assert tau_exact_qubit(depolarizing_channel(0.5)).evaluations == 0


def test_accelerated_ascent_saves_a_quarter_of_the_evaluations():
    ours = plain = 0
    for t in qudit_work_set():
        for kind, (start, step, build) in _ASCENTS.items():
            ours += _run_multistart([(t, kind)], 8, 5, 300)[0].evaluations
            plain += plain_ascent(t, start, step, build, restarts=8, seed=5)[1]
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


def test_stationary_cycle_extrapolates_to_the_second_step():
    # a step that returns its start makes r = v = 0; alpha = -1 then gives
    # B0 - 2 alpha r + alpha^2 v = B2, with no 0/0 along the way
    x_opt = np.eye(3, dtype=complex)[None, :2]

    def fixed_step(g):
        assert np.isfinite(g).all()
        return x_opt.repeat(len(g), axis=0)

    [(xs, fs, converged, evaluations)] = _power_ascent(
        np.eye(9, dtype=complex)[None], [(fixed_step, _ortho_input)],
        [x_opt.copy()], 300)
    assert np.array_equal(xs, x_opt)
    assert fs.tolist() == [1.0] and converged.all() and evaluations == 4


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
    problems = batch_problems(3)
    alone = [estimate_batch([p], restarts=8, seed=6)[0] for p in problems]
    for batch in (problems[::-1], problems[::2] + problems[1::2],
                  problems + problems):
        for p, est in zip(batch, estimate_batch(batch, restarts=8, seed=6)):
            ref = alone[problems.index(p)]
            assert est.value == pytest.approx(ref.value, rel=1e-12)
            assert est.evaluations == ref.evaluations
    again = estimate_batch(problems, restarts=8, seed=6)
    assert [e.evaluations for e in again] == [e.evaluations for e in alone]


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
    assert [e.method for e in out] == ["analytic", "dual_sphere", "analytic",
                                       "multistart_manifold", "analytic"]
    assert len(ascents) == 1 and len(ascents[0][2]) == 1
    assert out[3].value == norm_1to1(non_hp, restarts=8, seed=2,
                                     hermitian_only=True).value


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
    """The probe set drawn vector by vector from the stream."""
    probes = list(np.eye(d * d, dtype=complex).reshape(d * d, d, d))
    gen = SplitMix64(derive_seed(seed, 0xA11CE))
    for _ in range(PROBE_DRAWS):
        u, v, psi = (z / np.linalg.norm(z)
                     for z in [gen.complex_normals(d) for _ in range(3)])
        probes += [np.outer(u, v.conj()), np.outer(psi, psi.conj())]
    return np.array(probes)


@pytest.mark.parametrize("seed", [0, 1, 64])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_probe_inputs_match_sequential_draws(d, seed):
    expected = _sequential_probes(d, seed)
    probes = probe_inputs.__wrapped__(d, seed=seed)
    assert probes.shape == expected.shape == (d * d + 2 * PROBE_DRAWS, d, d)
    assert np.abs(probes - expected).max() <= 1e-15


def test_probe_inputs_memoised_and_read_only():
    probes = probe_inputs(3, seed=5)
    assert probe_inputs(3, seed=5) is probes
    assert not probes.flags.writeable
    with pytest.raises(ValueError):
        probes[0, 0, 0] = 2.0
    assert np.array_equal(probes, probe_inputs.__wrapped__(3, seed=5))
