import dataclasses
import math

import numpy as np
import pytest

from qms import contraction, spectral
from qms.channels import (DensityMatrix, basis_state, completely_depolarizing,
                          depolarizing_channel, identity_channel,
                          maximally_mixed)
from qms.errors import PreconditionError
from qms.rng import derive_seed
from qms.spectral import fixed_point_analysis
from qms.stability import (SPECTRAL_UPPER_COEFF, condition_numbers,
                           fixed_point_perturbation)


def random_channel(d, rank, seed):
    from qms.ensembles import random_channel as rc
    return rc(d, rank, seed)


def stationary_of(t, seed=0):
    analysis = fixed_point_analysis(t)
    m = analysis.projector.apply(maximally_mixed(t.dim).matrix)
    m = (m + m.conj().T) / 2
    return DensityMatrix(t.dim, m / np.trace(m).real)


def test_condition_numbers_depolarizing():
    rep = condition_numbers(depolarizing_channel(0.5), restarts=8, seed=0)
    assert rep.kappa_tau_z.value == pytest.approx(2.0, abs=1e-9)
    assert rep.kappa_contraction == pytest.approx(2.0, abs=1e-9)
    assert rep.spectral_lower == pytest.approx(2.0, abs=1e-12)
    expected_upper = SPECTRAL_UPPER_COEFF * 8 / 0.5
    assert rep.spectral_upper == pytest.approx(expected_upper, rel=1e-12)
    assert expected_upper == pytest.approx(258.0612761833, rel=1e-4)


def test_condition_numbers_completely_depolarizing():
    rep = condition_numbers(completely_depolarizing(2), restarts=8, seed=0)
    assert rep.kappa_tau_z.value == pytest.approx(1.0, abs=1e-9)
    assert rep.kappa_contraction == pytest.approx(1.0, abs=1e-9)
    assert rep.spectral_lower == pytest.approx(1.0, abs=1e-12)


def test_condition_numbers_non_unique_fixed_point():
    rep = condition_numbers(identity_channel(2), restarts=4, seed=0)
    assert rep.kappa_contraction is None
    assert rep.kappa_contraction_reason
    assert not rep.unique_stationary
    # degenerate spectrum: sandwich is vacuous
    assert rep.spectral_lower == 0.0
    assert math.isinf(rep.spectral_upper)


def test_condition_sandwich_random_qubits():
    for seed in range(8):
        t = random_channel(2, 4, derive_seed(11, seed))
        rep = condition_numbers(t, restarts=8, seed=seed)
        kz = rep.kappa_tau_z.value
        assert rep.spectral_lower <= kz + 1e-4
        assert kz <= rep.spectral_upper + 1e-4
        if rep.kappa_contraction is not None and math.isfinite(rep.kappa_contraction):
            assert kz <= rep.kappa_contraction + 1e-4


def test_prop2_equality_on_depolarizing_family():
    for p in (0.3, 0.5, 0.9):
        rep = condition_numbers(depolarizing_channel(p), restarts=8, seed=0)
        assert rep.kappa_tau_z.value == pytest.approx(1.0 / p, abs=1e-6)
        assert rep.kappa_contraction == pytest.approx(1.0 / p, abs=1e-6)


def test_perturbation_depolarizing_vs_identity_is_tight():
    t1 = depolarizing_channel(0.5)
    t2 = identity_channel(2)
    rho2 = basis_state(2, 0)
    out = fixed_point_perturbation(t1, t2, rho2, restarts=8, seed=1)
    assert out.actual_distance == pytest.approx(1.0, abs=1e-9)
    assert out.bound_value == pytest.approx(1.0, abs=1e-9)
    assert out.identity_residual <= 1e-10
    assert np.allclose(out.rho1.matrix, np.eye(2) / 2, atol=1e-10)


def test_perturbation_same_map_is_zero():
    t = random_channel(2, 4, seed=31)
    rho = stationary_of(t)
    out = fixed_point_perturbation(t, t, rho, restarts=4, seed=0)
    assert out.actual_distance <= 1e-10
    assert out.identity_residual <= 1e-10


def test_perturbation_shared_fixed_point():
    t1 = depolarizing_channel(0.5)
    t2 = depolarizing_channel(0.6)
    out = fixed_point_perturbation(t1, t2, maximally_mixed(2), restarts=8, seed=2)
    assert out.actual_distance <= 1e-10
    assert out.bound_value == pytest.approx(2.0 * 0.1, abs=1e-6)


def test_perturbation_requires_stationary_state():
    t1 = depolarizing_channel(0.5)
    t2 = depolarizing_channel(0.6)
    with pytest.raises(PreconditionError):
        fixed_point_perturbation(t1, t2, basis_state(2, 0), restarts=4, seed=0)


def test_identity_residual_random_triples():
    worst = 0.0
    for d, seed in [(2, 1), (2, 2), (3, 3), (3, 4), (4, 5)]:
        t1 = random_channel(d, d * d, derive_seed(41, seed))
        t2 = random_channel(d, d * d, derive_seed(42, seed))
        rho2 = stationary_of(t2)
        out = fixed_point_perturbation(t1, t2, rho2, restarts=4, seed=seed)
        worst = max(worst, out.identity_residual)
        assert out.actual_distance <= out.bound_value + 1e-4
    assert worst <= 1e-8


def test_bound_table_contains_all_variants():
    t1 = random_channel(2, 4, seed=51)
    t2 = random_channel(2, 4, seed=52)
    out = fixed_point_perturbation(t1, t2, stationary_of(t2), restarts=4, seed=0)
    assert set(out.bounds) == {"tau_z*general", "tau_z*hermitian",
                               "contraction*general", "contraction*hermitian",
                               "spectral_upper*general", "spectral_upper*hermitian"}
    assert set(out.norm_estimates) == {"general", "hermitian", "at_rho2"}
    assert out.norm_estimates["hermitian"] <= out.norm_estimates["general"] + 1e-9


def test_perturbation_builds_one_fundamental_map(count_calls):
    calls = count_calls(spectral, "fundamental_map")
    for d in (2, 3):
        t1 = random_channel(d, d * d, derive_seed(53, d))
        t2 = random_channel(d, d * d, derive_seed(54, d))
        fixed_point_perturbation(t1, t2, stationary_of(t2), restarts=2, seed=0)
    assert len(calls) == 2


def test_qubit_perturbation_runs_no_ascent(count_calls):
    # every norm and contraction coefficient of a qubit difference is a
    # closed form or the dual search on the Bloch sphere
    calls = count_calls(contraction, "_power_ascent")
    t1 = random_channel(2, 4, seed=55)
    t2 = random_channel(2, 4, seed=56)
    fixed_point_perturbation(t1, t2, stationary_of(t2), restarts=8, seed=0)
    assert len(calls) == 0


def test_qudit_perturbation_runs_one_batched_ascent(count_calls):
    # tau(Z1), tau(T1) and both norms of T1 - T2 are rows of one ascent
    calls = count_calls(contraction, "_power_ascent")
    t1 = random_channel(3, 9, seed=57)
    t2 = random_channel(3, 9, seed=58)
    out = fixed_point_perturbation(t1, t2, stationary_of(t2), restarts=4, seed=0)
    assert len(calls) == 1
    assert len(calls[0][2]) == 4
    assert out.bound_value == pytest.approx(
        out.condition_report.kappa_tau_z.value * out.norm_estimates["general"],
        rel=1e-15)


def test_qudit_condition_numbers_run_one_batched_ascent(count_calls):
    calls = count_calls(contraction, "_power_ascent")
    t = random_channel(3, 4, seed=59)
    report = condition_numbers(t, restarts=4, seed=1)
    assert len(calls) == 1
    assert len(calls[0][2]) == 2
    assert report.tau_t.value == pytest.approx(
        contraction.tau(t, restarts=4, seed=1).value, rel=1e-12)
    assert len(calls) == 2


def test_general_norm_never_below_hermitian(monkeypatch):
    # every Hermitian input is admissible in general mode, so a general
    # estimate that stops short of the exact Hermitian norm (here a stub
    # that reports 0) is lifted to the Hermitian one
    exact = contraction._general_norm_qubit
    monkeypatch.setattr(contraction, "_general_norm_qubit",
                        lambda m: dataclasses.replace(exact(m), value=0.0))
    t1 = random_channel(2, 4, derive_seed(51, 2))
    t2 = random_channel(2, 4, derive_seed(52, 2))
    out = fixed_point_perturbation(t1, t2, stationary_of(t2), restarts=1, seed=0)
    herm = out.norm_estimates["hermitian"]
    assert herm > 0.1
    assert out.norm_estimates["general"] == herm
    assert out.bounds["tau_z*general"] == out.bounds["tau_z*hermitian"]
