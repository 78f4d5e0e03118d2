import math

import numpy as np
import pytest

from qms.channels import (SuperOperator, basis_state, completely_depolarizing,
                          depolarizing_channel, from_kraus, from_stochastic,
                          identity_channel)
from qms.errors import (DomainError, IllConditionedStructureError,
                        SpectralResolutionError)
from qms.linalg import matrix_exp, spectral_norm, vec
from qms.rng import SplitMix64, derive_seed
from qms.spectral import (TOL_FIX, fixed_point_analysis, fundamental_map,
                          minimal_polynomial, spectral_quantities)


def random_channel(d, rank, seed):
    from qms.ensembles import random_channel as rc
    return rc(d, rank, seed)


def test_projector_depolarizing_is_rank_one():
    p = fixed_point_analysis(depolarizing_channel(0.3)).projector
    assert np.linalg.matrix_rank(p.matrix) == 1
    for seed in range(3):
        g = SplitMix64(seed).complex_normals((2, 2))
        assert np.allclose(p.apply(g), np.trace(g) * np.eye(2) / 2, atol=1e-10)


def test_projector_identity_channel():
    p = fixed_point_analysis(identity_channel(2)).projector
    assert np.allclose(p.matrix, np.eye(4), atol=1e-10)


def test_projector_swap_stochastic_excludes_peripheral():
    t = from_stochastic([[0, 1], [1, 0]])
    analysis = fixed_point_analysis(t)
    assert analysis.multiplicity == 1
    assert analysis.peripheral_spectrum
    assert not analysis.cesaro_checked
    assert any("peripheral" in n for n in analysis.notes)
    assert analysis.projector.label is None       # the notes are not copied
    # Cesaro average of the period-2 swap fixes I/2 on the diagonal sector
    p = analysis.projector
    e00 = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(p.apply(e00), np.eye(2) / 2, atol=1e-10)


def test_projector_cesaro_cross_check_runs_for_fast_mixing():
    analysis = fixed_point_analysis(depolarizing_channel(0.5))
    assert analysis.cesaro_checked
    assert analysis.cesaro_residual <= 1e-6


def test_projector_residuals_are_kept_beside_the_cesaro_residual():
    t = random_channel(3, 4, seed=91)
    analysis = fixed_point_analysis(t)
    m, p = t.matrix, analysis.projector.matrix
    expected = {"idempotence": p @ p - p, "T o P": m @ p - p, "P o T": p @ m - p}
    assert list(analysis.projector_residuals) == list(expected)
    for name, x in expected.items():
        assert analysis.projector_residuals[name] == spectral_norm(x) <= 1e-8
    assert analysis.cesaro_checked and analysis.cesaro_residual <= 1e-6


def test_projector_postconditions_random_ensemble():
    for d, seed in [(2, 1), (3, 2), (4, 3)]:
        t = random_channel(d, d * d, seed)
        analysis = fixed_point_analysis(t)
        p, m = analysis.projector.matrix, t.matrix
        scale = max(1.0, np.linalg.norm(m, 2))
        assert np.linalg.norm(p @ p - p, 2) <= 1e-8 * scale
        assert np.linalg.norm(m @ p - p, 2) <= 1e-8 * scale
        assert np.linalg.norm(p @ m - p, 2) <= 1e-8 * scale
        assert analysis.projector.tp_residual() <= 1e-8


def test_delta_powers_equal_power_minus_projector():
    for seed in range(4):
        t = random_channel(2, 4, derive_seed(101, seed))
        analysis = fixed_point_analysis(t)
        delta = t.matrix - analysis.projector.matrix
        power_t = np.eye(4, dtype=complex)
        power_d = np.eye(4, dtype=complex)
        for _ in range(5):
            power_t = power_t @ t.matrix
            power_d = power_d @ delta
            assert np.abs(power_d - (power_t - analysis.projector.matrix)).max() <= 1e-8


def test_projector_kills_traceless_when_unique():
    t = random_channel(3, 9, seed=6)
    analysis = fixed_point_analysis(t)
    assert analysis.multiplicity == 1
    gen = SplitMix64(12)
    x = gen.complex_normals((3, 3))
    x -= np.trace(x) * np.eye(3) / 3
    assert np.abs(analysis.projector.apply(x)).max() <= 1e-8


def test_limit_state_depolarizing():
    analysis = fixed_point_analysis(depolarizing_channel(0.4))
    assert analysis.multiplicity == 1
    sigma = analysis.limit_state(basis_state(2, 0).matrix)
    assert np.allclose(sigma.matrix, np.eye(2) / 2, atol=1e-10)


def test_limit_state_decay_channel():
    # every state decays to |0><0|, the unique fixed point
    k0 = np.array([[1, 0], [0, 0]], dtype=complex)
    k1 = np.array([[0, 1], [0, 0]], dtype=complex)
    analysis = fixed_point_analysis(from_kraus([k0, k1]))
    assert analysis.multiplicity == 1
    for i in range(2):
        sigma = analysis.limit_state(basis_state(2, i).matrix)
        assert np.allclose(sigma.matrix, k0, atol=1e-10)


def test_limit_state_refuses_a_vanishing_trace():
    # X -> X - tr(X) I/2 fixes the traceless matrices, so every state
    # projects to trace 0: the map is not trace-preserving
    vi = vec(np.eye(2))
    analysis = fixed_point_analysis(SuperOperator(2, np.eye(4) - np.outer(vi, vi) / 2))
    with pytest.raises(DomainError, match="trace-preserving"):
        analysis.limit_state(basis_state(2, 0).matrix)


def test_limit_state_refuses_a_non_hermitian_fixed_point():
    # a channel plus 0.05 |vec(E01)><vec(Z)| does not preserve Hermiticity,
    # and T^inf(|0><0|) keeps an anti-Hermitian part of about 5e-3, so a
    # Hermitized state would not be stationary
    e01, z = np.zeros((2, 2)), np.diag([1.0, -1.0])
    e01[0, 1] = 1.0
    m = random_channel(2, 4, 5).matrix + 0.05 * np.outer(vec(e01), vec(z))
    analysis = fixed_point_analysis(SuperOperator(2, m))
    with pytest.raises(DomainError, match="fixed point is not Hermitian"):
        analysis.limit_state(basis_state(2, 0).matrix)


def test_fundamental_map_completely_depolarizing():
    z = fundamental_map(completely_depolarizing(2))
    assert np.allclose(z.matrix, np.eye(4), atol=1e-10)


def test_fundamental_map_depolarizing_spectrum():
    p = 0.25
    z = fundamental_map(depolarizing_channel(p))
    w = np.sort(np.abs(np.linalg.eigvals(z.matrix)))
    assert np.allclose(w, [1.0, 1 / p, 1 / p, 1 / p], atol=1e-10)
    # acts as multiplication by 1/p on traceless inputs
    sigma = np.array([[1, 2 - 1j], [2 + 1j, -1]], dtype=complex)
    assert np.allclose(z.apply(sigma), sigma / p, atol=1e-10)


def test_fundamental_map_spectrum_identity_random():
    for seed in range(4):
        t = random_channel(2, 4, derive_seed(202, seed))
        z = fundamental_map(t)
        spec = spectral_quantities(t)
        lam = spec.eigenvalues[np.abs(spec.eigenvalues - 1.0) > TOL_FIX]
        expected = np.concatenate([[1.0], 1.0 / (1.0 - lam)])
        got = np.linalg.eigvals(z.matrix)
        expected = np.sort_complex(np.round(expected, 8))
        got = np.sort_complex(np.round(got, 8))
        assert np.abs(expected - got).max() <= 1e-6


def test_fundamental_map_is_trace_preserving():
    t = random_channel(3, 9, seed=14)
    z = fundamental_map(t)
    assert z.trace_preserving
    assert z.tp_residual() <= 1e-8


def test_spectral_quantities_depolarizing():
    spec = spectral_quantities(depolarizing_channel(0.5))
    assert spec.min_dist_to_one == pytest.approx(0.5, abs=1e-12)
    assert spec.spectral_gap == pytest.approx(0.5, abs=1e-12)
    assert spec.subdominant_modulus == pytest.approx(0.5, abs=1e-12)
    assert spec.peripheral_count == 0
    assert spec.one_group_multiplicity == 1


def test_spectral_quantities_swap():
    spec = spectral_quantities(from_stochastic([[0, 1], [1, 0]]))
    lam = np.sort_complex(spec.eigenvalues[np.abs(spec.eigenvalues - 1.0) > TOL_FIX])
    assert np.allclose(lam, [-1.0, 0.0, 0.0], atol=1e-10)
    assert spec.min_dist_to_one == pytest.approx(1.0, abs=1e-10)
    assert spec.spectral_gap == pytest.approx(0.0, abs=1e-10)
    assert spec.peripheral_count == 1


def test_spectral_quantities_unitary_conjugation():
    theta = 0.9
    u = np.diag([1.0, np.exp(1j * theta)])
    t = from_kraus([u])
    spec = spectral_quantities(t)
    assert spec.spectral_gap == pytest.approx(0.0, abs=1e-10)
    assert spec.min_dist_to_one == pytest.approx(abs(1 - np.exp(1j * theta)),
                                                 abs=1e-10)
    assert spec.one_group_multiplicity == 2


def test_spectral_quantities_empty_nonunit_set():
    spec = spectral_quantities(identity_channel(2))
    assert math.isinf(spec.min_dist_to_one)
    assert math.isinf(spec.spectral_gap)
    assert spec.subdominant_modulus == 0.0


def test_gap_never_exceeds_distance_to_one():
    for seed in range(6):
        spec = spectral_quantities(random_channel(2, 4, derive_seed(33, seed)))
        assert spec.spectral_gap <= spec.min_dist_to_one + 1e-12


def test_minimal_polynomial_depolarizing():
    t = depolarizing_channel(0.5)
    mp = minimal_polynomial(SuperOperator(
        2, t.matrix - fixed_point_analysis(t).projector.matrix))
    roots = np.sort(np.abs(mp.distinct_roots))
    assert np.allclose(roots, [0.0, 0.5], atol=1e-9)
    assert mp.block_sizes == [1, 1]
    assert mp.degree == 2


def test_minimal_polynomial_zero_map():
    mp = minimal_polynomial(SuperOperator(2, np.zeros((4, 4))))
    assert np.allclose(mp.distinct_roots, [0.0])
    assert mp.block_sizes == [1]
    assert mp.degree == 1


def test_minimal_polynomial_explicit_jordan_block():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = 0.3
    m[0, 1] = 1.0
    mp = minimal_polynomial(SuperOperator(2, m))
    by_root = dict(zip(np.round(mp.distinct_roots, 6), mp.block_sizes))
    assert by_root[(0.3 + 0j)] == 2
    assert by_root[0j] == 1
    assert mp.degree == 3


def test_minimal_polynomial_orders_conjugate_pair_by_real_then_imag():
    # the computed moduli of a conjugate pair may differ in the last ulp,
    # either way; the listed order must not depend on it
    z = 0.5 + 0.3j
    orders = []
    for direction in (np.inf, 0.0):
        b = z.imag
        while abs(complex(z.real, -b)) == abs(z):
            b = np.nextafter(b, direction)
        nudged = abs(complex(z.real, -b)) - abs(z)
        assert (nudged > 0) == (direction > 0)
        assert abs(nudged) <= 2 * np.spacing(abs(z))
        m = np.diag([z, complex(z.real, -b), 0.2, 0.0])
        orders.append(np.sign(minimal_polynomial(SuperOperator(2, m)).distinct_roots.imag))
    # nor on real parts that differ in the last ulp, either way
    for direction in (np.inf, -np.inf):
        m = np.diag([z, complex(np.nextafter(z.real, direction), -z.imag), 0.2, 0.0])
        orders.append(np.sign(minimal_polynomial(SuperOperator(2, m)).distinct_roots.imag))
    assert all(o.tolist() == [-1.0, 1.0, 0.0, 0.0] for o in orders)


def test_minimal_polynomial_annihilates():
    for seed in range(4):
        t = random_channel(2, 4, derive_seed(303, seed))
        delta = SuperOperator(2, t.matrix - fixed_point_analysis(t).projector.matrix)
        mp = minimal_polynomial(delta)
        m = delta.matrix
        poly = np.eye(4, dtype=complex)
        for root, size in zip(mp.distinct_roots, mp.block_sizes):
            for _ in range(size):
                poly = poly @ (m - root * np.eye(4))
        norm = np.linalg.norm(m, 2)
        assert np.linalg.norm(poly, 2) <= 1e-6 * norm ** mp.degree


def test_non_tp_map_has_no_fixed_point():
    with pytest.raises(SpectralResolutionError):
        fixed_point_analysis(SuperOperator(2, 0.5 * np.eye(4, dtype=complex)))


def test_missing_fixed_point_is_a_domain_error_only_when_resolved():
    with pytest.raises(DomainError):
        fixed_point_analysis(SuperOperator(2, 0.5 * np.eye(4, dtype=complex)))
    # e^{200 (I - P)} keeps an eigenvalue 1 beside three of order 1e86, far
    # below the eigensolver's resolution there
    p = np.outer([0.5, 0, 0, 0.5], [1, 0, 0, 1])
    huge = SuperOperator(2, matrix_exp(200.0 * (np.eye(4) - p)))
    with pytest.raises(SpectralResolutionError) as info:
        fixed_point_analysis(huge)
    assert not isinstance(info.value, DomainError)


def test_unseparable_one_cluster_raises():
    # a mode at distance 5e-9 from the eigenvalue 1 sits between the
    # fixed-group tolerance and its 10x guard band
    with pytest.raises(SpectralResolutionError):
        fixed_point_analysis(depolarizing_channel(5e-9))


def test_minimal_polynomial_simple_roots_need_no_rank_decision():
    # 1.5e-4 squared lands within a factor 10 of the rank threshold, yet
    # every root is simple, so the structure is decided by the clustering
    m = np.diag([0.0, -1.5e-4, -0.16, -0.39]).astype(complex)
    mp = minimal_polynomial(SuperOperator(2, m))
    assert mp.block_sizes == [1, 1, 1, 1]
    assert sorted(mp.distinct_roots.real) == [-0.39, -0.16, -1.5e-4, 0.0]


def test_minimal_polynomial_unstable_rank_raises():
    m = np.diag([1.0, 3e-9, 0.0, 0.0]).astype(complex)
    with pytest.raises(IllConditionedStructureError):
        minimal_polynomial(SuperOperator(2, m))


# ---------------------------------------------------------------------------
# the analysis is memoised per SuperOperator, for the 8 most recent maps


def test_fixed_point_analysis_is_memoised(count_calls):
    from qms import spectral
    eigs = count_calls(spectral, "_spectral_data")
    t = random_channel(3, 4, 17)
    assert fixed_point_analysis(t) is fixed_point_analysis(t)
    fundamental_map(t)
    fixed_point_analysis(t).limit_state(basis_state(3, 0).matrix)
    SuperOperator(3, t.matrix - fixed_point_analysis(t).projector.matrix)
    assert len(eigs) == 1


def test_equal_maps_do_not_share_a_memo(count_calls):
    from qms import spectral
    eigs = count_calls(spectral, "_spectral_data")
    t1, t2 = depolarizing_channel(0.4), depolarizing_channel(0.4)
    assert np.array_equal(t1.matrix, t2.matrix)
    assert fixed_point_analysis(t1) is not fixed_point_analysis(t2)
    assert len(eigs) == 2


def test_failed_analysis_is_not_stored(count_calls):
    from qms import spectral
    eigs = count_calls(spectral, "_spectral_data")
    t = SuperOperator(2, 0.5 * np.eye(4))
    for _ in range(2):
        with pytest.raises(SpectralResolutionError):
            fixed_point_analysis(t)
    assert len(eigs) == 2


def test_memo_reanalyses_a_map_after_eight_others(count_calls):
    from qms import spectral
    eigs = count_calls(spectral, "_spectral_data")
    maps = [random_channel(2, 2, derive_seed(41, i)) for i in range(10)]
    for t in maps:
        fixed_point_analysis(t)
    assert len(eigs) == 10
    fixed_point_analysis(maps[0])
    assert len(eigs) == 11
    fixed_point_analysis(maps[-1])
    assert len(eigs) == 11


def test_memo_holds_at_most_eight_maps():
    from qms import spectral
    for i in range(100):
        fixed_point_analysis(random_channel(2, 2, derive_seed(43, i)))
    assert spectral._analyse.cache_info().currsize <= 8


@pytest.mark.parametrize("t", [depolarizing_channel(0.5), identity_channel(2),
                               from_stochastic([[0, 1], [1, 0]]),
                               random_channel(3, 2, 5)])
def test_analysis_spectral_matches_spectral_quantities(t):
    want = spectral_quantities(t)
    got = fixed_point_analysis(t).spectral
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    for key in ("min_dist_to_one", "spectral_gap", "subdominant_modulus",
                "peripheral_count", "one_group_multiplicity"):
        assert getattr(got, key) == getattr(want, key)
