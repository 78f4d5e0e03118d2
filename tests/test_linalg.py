import numpy as np
import pytest

from qms.errors import DimensionError, ValidationError
from qms.linalg import (apply_batch, eig, kron, matrix_exp, trace_norm,
                        trace_norm_batch, unvec, vec)
from qms.rng import SplitMix64, derive_seed


def random_unitary(d, seed):
    g = SplitMix64(seed).complex_normals((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("d", [2, 3])
def test_apply_batch_over_a_stack_of_maps(d):
    gen = SplitMix64(derive_seed(5, d))
    maps = gen.complex_normals((4, d * d, d * d))
    mats = gen.complex_normals((6, d, d))
    stacked = apply_batch(maps, mats)
    assert stacked.shape == (4, 6, d, d)
    for m, images in zip(maps, stacked):
        single = apply_batch(m, mats)
        assert np.abs(images - single).max() <= 1e-15 * np.abs(single).max()
        assert np.allclose(single[2], unvec(m @ vec(mats[2]), d))


def test_trace_norm_identity():
    assert trace_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-12)


def test_trace_norm_diag_sign():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_projector_minus_mixed():
    # eigenvalues of |psi><psi| - I/2 are +-1/2 for any unit psi
    for seed in range(5):
        psi = SplitMix64(seed).complex_normals(2)
        psi /= np.linalg.norm(psi)
        m = np.outer(psi, psi.conj()) - np.eye(2) / 2
        assert trace_norm(m) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_rejects_non_square():
    with pytest.raises(DimensionError):
        trace_norm(np.ones((2, 3)))


def test_trace_norm_rejects_nan():
    m = np.eye(2, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValidationError):
        trace_norm(m)


def test_trace_norm_unitary_invariance():
    for seed in range(6):
        m = SplitMix64(derive_seed(seed, 1)).complex_normals((3, 3))
        u = random_unitary(3, derive_seed(seed, 2))
        v = random_unitary(3, derive_seed(seed, 3))
        assert trace_norm(u @ m @ v) == pytest.approx(trace_norm(m), abs=1e-10)


def test_trace_norm_triangle_inequality():
    for seed in range(6):
        a = SplitMix64(derive_seed(seed, 4)).complex_normals((4, 4))
        b = SplitMix64(derive_seed(seed, 5)).complex_normals((4, 4))
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_trace_norm_batch_matches_single():
    mats = SplitMix64(3).complex_normals((7, 2, 2))
    batch = trace_norm_batch(mats)
    for i in range(7):
        assert batch[i] == pytest.approx(trace_norm(mats[i]), abs=1e-12)
    mats3 = SplitMix64(4).complex_normals((5, 3, 3))
    batch3 = trace_norm_batch(mats3)
    for i in range(5):
        assert batch3[i] == pytest.approx(trace_norm(mats3[i]), abs=1e-12)


def test_eig_sorted_by_modulus():
    es = eig(np.diag([2.0, 1.0]))
    assert np.allclose(es.eigenvalues, [2.0, 1.0])
    assert es.residual <= 1e-10


def test_eig_depolarizing_superoperator():
    from qms.channels import depolarizing_channel
    es = eig(depolarizing_channel(0.5).matrix)
    assert np.allclose(sorted(np.abs(es.eigenvalues), reverse=True),
                       [1.0, 0.5, 0.5, 0.5], atol=1e-12)


def test_eig_jordan_block_flagged_degenerate():
    es = eig(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(es.eigenvalues, [1.0, 1.0])
    assert es.degenerate
    assert es.clusters == [[0, 1]]


def test_eig_biorthogonality_and_reconstruction():
    # similarity transform of well-separated eigenvalues
    for seed in range(4):
        g = SplitMix64(seed).complex_normals((5, 5))
        v = g + 2.0 * np.eye(5)
        lam = np.array([3.0, 2.0, 1.0, -1.0, 0.5])
        m = v @ np.diag(lam) @ np.linalg.inv(v)
        es = eig(m)
        overlap = es.left_vectors.conj().T @ es.right_vectors
        assert np.abs(overlap - np.eye(5)).max() <= 1e-8
        err = np.linalg.norm(es.reconstruct() - m, 2)
        assert err <= 1e-8 * np.linalg.norm(m, 2)


def test_matrix_exp_zero_and_diagonal():
    assert np.allclose(matrix_exp(np.zeros((3, 3)), 7.0), np.eye(3))
    assert matrix_exp(np.diag([-1.0]), 1.0)[0, 0] == pytest.approx(np.exp(-1.0),
                                                                   rel=1e-12)


def test_matrix_exp_depolarizing_generator_series():
    # e^{tL}(X) = e^{-t} X + (1 - e^{-t}) tr[X] I/2, verified by summation
    from qms.channels import depolarizing_channel, depolarizing_generator
    gen = depolarizing_generator(1.0).matrix
    got = matrix_exp(gen, 1.0)
    series = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 60):
        term = term @ gen / k
        series += term
    assert np.abs(got - series).max() <= 1e-13
    closed = depolarizing_channel(1.0 - np.exp(-1.0)).matrix
    assert np.abs(got - closed).max() <= 1e-12


def test_matrix_exp_semigroup_property():
    m = SplitMix64(9).complex_normals((4, 4))
    m = m / np.linalg.norm(m, 2)
    lhs = matrix_exp(m, 0.7 + 1.1)
    rhs = matrix_exp(m, 0.7) @ matrix_exp(m, 1.1)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_matrix_exp_overflow_raises():
    from qms.errors import NumericError
    with pytest.raises(NumericError):
        matrix_exp(np.diag([1.0]), 1000.0)


def test_vec_column_stacking():
    assert np.allclose(vec(np.array([[1, 2], [3, 4]])), [1, 3, 2, 4])


def test_unvec_roundtrip():
    x = SplitMix64(2).complex_normals((3, 3))
    assert np.allclose(unvec(vec(x), 3), x)


def test_kron_identity():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_vec_identity():
    # kron(A^T, B) vec(X) = vec(B X A)
    a = SplitMix64(11).complex_normals((3, 3))
    b = SplitMix64(12).complex_normals((3, 3))
    x = SplitMix64(13).complex_normals((3, 3))
    assert np.allclose(kron(a.T, b) @ vec(x), vec(b @ x @ a), atol=1e-12)


def test_unvec_dimension_error():
    with pytest.raises(DimensionError):
        unvec(np.arange(5), 2)


# ---------------------------------------------------------------------------
# eig against a scipy oracle (scipy is imported here only; qms does not
# load it outside matrix_exp)


def _scipy_eigensystem(m):
    """Sorted eigenvalues, clusters, degenerate flag and biorthogonalized
    left vectors from ``scipy.linalg.eig(left=True)``, matched per index."""
    import scipy.linalg
    from qms.linalg import TOL_CLUSTER, _cluster_indices
    w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    order = np.lexsort((w.imag, w.real, -np.abs(w)))
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    clusters = _cluster_indices(w, TOL_CLUSTER * float(np.abs(w).max()))
    degenerate = False
    for grp in clusters:
        overlap = vl[:, grp].conj().T @ vr[:, grp]
        if np.linalg.svd(overlap, compute_uv=False)[-1] <= 1e-10:
            degenerate = True
            continue
        vl[:, grp] = vl[:, grp] @ np.linalg.inv(overlap).conj().T
    return w, vr, vl, clusters, degenerate


def _oracle_maps():
    from qms.channels import SuperOperator, from_kraus, from_stochastic, identity_channel
    from qms.ensembles import random_channel
    maps = {f"random_d{d}_r{r}_s{s}": random_channel(d, r, s)
            for d in (2, 3, 4) for s in range(3) for r in (1, 2, d * d)}
    maps["three_cycle"] = from_stochastic([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    maps["diagonal_unitary"] = from_kraus(
        [np.diag(np.exp(1j * np.array([0.0, 0.7, 1.9])))])
    maps["identity_d3"] = identity_channel(3)
    jordan = np.diag([1.0, 0.5, 0.5, 0.2]).astype(complex)
    jordan[1, 2] = 1.0
    maps["jordan_at_half"] = SuperOperator(2, jordan)
    return maps


ORACLE_MAPS = _oracle_maps()


@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
def test_eig_projector_matches_scipy_oracle(name):
    from qms.spectral import TOL_FIX, fixed_point_analysis
    t = ORACLE_MAPS[name]
    w, vr, vl, clusters, degenerate = _scipy_eigensystem(t.matrix)
    analysis = fixed_point_analysis(t)
    es = analysis.eigensystem
    assert es.clusters == clusters
    assert es.degenerate == degenerate
    assert np.abs(es.eigenvalues - w).max() <= 1e-12
    ones = np.nonzero(np.abs(w - 1.0) <= TOL_FIX)[0]
    r1, l1 = vr[:, ones], vl[:, ones]
    oracle = r1 @ np.linalg.solve(l1.conj().T @ r1, l1.conj().T)
    assert np.abs(analysis.projector.matrix - oracle).max() <= 1e-12


def test_eig_jordan_block_at_non_unit_eigenvalue_is_degenerate():
    es = eig(ORACLE_MAPS["jordan_at_half"].matrix)
    assert es.degenerate
    assert es.clusters == [[0], [1, 2], [3]]


def test_eig_matches_left_vectors_across_equal_modulus_reorderings():
    # the 3-cycle and a diagonal unitary have spectra of equal modulus, so
    # the decompositions of M and M^dag may list them in different orders
    for name in ("three_cycle", "diagonal_unitary"):
        m = ORACLE_MAPS[name].matrix
        es = eig(m)
        assert not es.degenerate
        for grp in es.clusters:
            overlap = es.left_vectors[:, grp].conj().T @ es.right_vectors[:, grp]
            assert np.abs(overlap - np.eye(len(grp))).max() <= 1e-12
        assert np.abs(es.reconstruct() - m).max() <= 1e-12


def test_eig_mismatched_left_spectrum_is_numeric_error(monkeypatch):
    # a left decomposition that does not pair up with the clusters of M
    # raises NumericError, never IndexError
    from qms.errors import NumericError
    m = np.diag([1.0, 0.5]).astype(complex)
    real_eig = np.linalg.eig

    def skewed(a):
        w, v = real_eig(a)
        return np.array([w[0], w[0]]), v

    calls = iter([real_eig, skewed])
    monkeypatch.setattr(np.linalg, "eig", lambda a: next(calls)(a))
    with pytest.raises(NumericError, match="matching"):
        eig(m)
