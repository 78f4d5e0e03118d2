import numpy as np
import pytest

from qms.channels import SuperOperator
from qms.errors import DimensionError, SpectralResolutionError, ValidationError
from qms.linalg import (apply_batch, matrix_exp, trace_norm, trace_norm_batch,
                        unvec, vec)
from qms.spectral import fixed_point_analysis, spectral_quantities
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
    # nonincreasing modulus, ties by real then imaginary part
    m = np.diag([0.5, 2.0, 1.0, -2.0]).astype(complex)
    w = spectral_quantities(SuperOperator(2, m)).eigenvalues
    assert np.array_equal(w, [-2.0, 2.0, 1.0, 0.5])


def test_eig_depolarizing_superoperator():
    from qms.channels import depolarizing_channel
    w = spectral_quantities(depolarizing_channel(0.5)).eigenvalues
    assert np.allclose(np.abs(w), [1.0, 0.5, 0.5, 0.5], atol=1e-12)


def test_eig_jordan_block_flagged_degenerate():
    # a Jordan block at 1: two eigenvalues at 1 but a one-dimensional kernel
    m = np.diag([1.0, 1.0, 0.5, 0.2]).astype(complex)
    m[0, 1] = 1.0
    with pytest.raises(SpectralResolutionError, match="defective"):
        fixed_point_analysis(SuperOperator(2, m))


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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_matrix_exp_matches_scipy_oracle(d):
    import scipy.linalg
    from qms.ensembles import random_generator
    from qms.linalg import _THETA
    for seed in range(4):
        gen = random_generator(d, 2, derive_seed(seed, d), check=False).matrix
        # 1-norms just below and above each theta_m switch the Pade degree;
        # 3/4 of each lies inside a degree's range (for m = 13, unscaled)
        norm = np.abs(gen).sum(axis=0).max()
        edges = [theta * f / norm for theta in _THETA.values()
                 for f in (1 - 1e-9, 1 + 1e-9, 0.75)]
        for t in (1e-3, 0.1, 1.0, 20 / 99, 20.0, *edges):
            want = scipy.linalg.expm(t * gen)
            got = matrix_exp(gen, t)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_vec_column_stacking():
    assert np.allclose(vec(np.array([[1, 2], [3, 4]])), [1, 3, 2, 4])


def test_unvec_roundtrip():
    x = SplitMix64(2).complex_normals((3, 3))
    assert np.allclose(unvec(vec(x), 3), x)


def test_kron_vec_identity():
    # kron(A^T, B) vec(X) = vec(B X A)
    a = SplitMix64(11).complex_normals((3, 3))
    b = SplitMix64(12).complex_normals((3, 3))
    x = SplitMix64(13).complex_normals((3, 3))
    assert np.allclose(np.kron(a.T, b) @ vec(x), vec(b @ x @ a), atol=1e-12)


def test_unvec_dimension_error():
    with pytest.raises(DimensionError):
        unvec(np.arange(5), 2)


# ---------------------------------------------------------------------------
# the fixed-point projector against a scipy oracle (scipy is a test-only
# dependency; qms itself never imports it)


def _scipy_eigensystem(m):
    """Eigenvalues with right and left vectors from
    ``scipy.linalg.eig(left=True)``, sorted as qms sorts them."""
    import scipy.linalg
    w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    order = np.lexsort((w.imag, w.real, -np.abs(w)))
    return w[order], vr[:, order], vl[:, order]


def _oracle_maps():
    from qms.channels import from_kraus, from_stochastic, identity_channel
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
    from qms.spectral import TOL_FIX
    t = ORACLE_MAPS[name]
    w, vr, vl = _scipy_eigensystem(t.matrix)
    analysis = fixed_point_analysis(t)
    assert np.abs(analysis.spectral.eigenvalues - w).max() <= 1e-12
    ones = np.nonzero(np.abs(w - 1.0) <= TOL_FIX)[0]
    r1, l1 = vr[:, ones], vl[:, ones]
    oracle = r1 @ np.linalg.solve(l1.conj().T @ r1, l1.conj().T)
    assert np.abs(analysis.projector.matrix - oracle).max() <= 1e-12


def test_eig_matches_left_vectors_across_equal_modulus_reorderings():
    # peripheral spectra skip the Cesaro cross-check, so check the
    # projector against closed forms: the average of T, T^2 and T^3 for a
    # 3-cycle, and the dephasing map for a unitary with distinct phases
    cycle = ORACLE_MAPS["three_cycle"]
    t = cycle.matrix
    got = fixed_point_analysis(cycle).projector.matrix
    assert np.abs(got - (t + t @ t + t @ t @ t) / 3).max() <= 1e-12
    dephase = np.diag(vec(np.eye(3)))
    got = fixed_point_analysis(ORACLE_MAPS["diagonal_unitary"]).projector.matrix
    assert np.abs(got - dephase).max() <= 1e-12
