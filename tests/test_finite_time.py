import math

import numpy as np
import pytest

from qms.channels import (GeneratorMap, SuperOperator,
                          amplitude_damping_channel, basis_state, compose,
                          completely_depolarizing, depolarizing_channel,
                          depolarizing_generator, from_kraus, from_stochastic,
                          identity_channel, pauli_channel)
from qms.contraction import norm_lower_bound_probes, probe_inputs
from qms.errors import BoundViolationError, DomainError, HypothesisError
from qms.finite_time import (VALIDATION_TOL, asymptotic_continuous,
                             asymptotic_discrete, continuous_bound,
                             continuous_trajectory_check, discrete_bound,
                             discrete_trajectory_check, n_hat, pair_chi2,
                             pair_chi2_generator, pair_detailed_balance,
                             pair_detailed_balance_generator,
                             pair_spectral_eq10, t_hat, user_pair,
                             validate_pair_on_channel,
                             validate_pair_on_generator)
from qms.linalg import matrix_exp
from qms.rng import derive_seed
from qms.spectral import fixed_point_analysis, spectral_quantities


def random_channel(d, rank, seed):
    from qms.ensembles import random_channel as rc
    return rc(d, rank, seed)


# ---------------------------------------------------------------------------
# threshold and bound formulas


def test_n_hat_examples():
    assert n_hat(1.0, 0.5) == 0
    assert n_hat(0.3, 0.5) == 0           # clamped for K < 1
    assert n_hat(4.0, 0.5) == 2           # ceil(log(1/4)/log(1/2)) = 2
    assert n_hat(3.0, 0.5) == 2           # ceil(1.585) = 2
    assert n_hat(2.0, 0.0) == 0


def test_t_hat_examples():
    assert t_hat(1.0, 2.0) == 0.0
    assert t_hat(0.5, 2.0) == 0.0
    assert t_hat(math.e, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_discrete_bound_one_step():
    pair = user_pair(1.0, 0.5)
    fb = discrete_bound(pair, 1, 0.0, 0.1)
    assert fb.threshold == 0
    assert fb.regime == "post_threshold"
    assert fb.bound_value == pytest.approx(0.1, abs=1e-12)


def test_discrete_bound_zero_steps():
    fb = discrete_bound(user_pair(1.0, 0.5), 0, 0.7, 0.1)
    assert fb.regime == "pre_threshold"
    assert fb.bound_value == pytest.approx(0.7, abs=1e-12)


def test_discrete_bound_large_n_limit():
    pair = user_pair(1.0, 0.5)
    fb = discrete_bound(pair, 400, 5.0, 0.1)
    assert fb.bound_value == pytest.approx(0.2, abs=1e-12)
    assert asymptotic_discrete(pair, 0.1) == pytest.approx(0.2, abs=1e-15)


def test_discrete_bound_mu_zero_edge():
    pair = user_pair(1.0, 0.0)
    assert discrete_bound(pair, 0, 0.3, 0.1).bound_value == pytest.approx(0.3)
    assert discrete_bound(pair, 5, 0.3, 0.1).bound_value == pytest.approx(0.1)


def test_discrete_bound_domain_errors():
    with pytest.raises(DomainError):
        user_pair(1.0, 1.0)
    with pytest.raises(DomainError):
        user_pair(-0.5, 0.5)
    with pytest.raises(DomainError):
        discrete_bound(user_pair(1.0, 0.5), -1, 0.0, 0.1)


def test_asymptotic_discrete_k4():
    pair = user_pair(4.0, 0.5)
    assert asymptotic_discrete(pair, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert asymptotic_discrete(pair, 0.0) == 0.0


def test_asymptotic_equals_limit_when_crossover_is_exact():
    # K mu^n_hat = 1 on these fixtures, where the asymptotic value is the
    # exact n -> infinity limit of the two-regime formula
    for K, mu in [(1.0, 0.5), (4.0, 0.5), (1.0, 0.3)]:
        pair = user_pair(K, mu)
        limit = discrete_bound(pair, 10_000, 3.0, 0.1).bound_value
        assert asymptotic_discrete(pair, 0.1) == pytest.approx(limit, abs=1e-12)


def test_asymptotic_dominates_limit_in_general():
    for K, mu in [(3.0, 0.5), (2.5, 0.7), (7.0, 0.2)]:
        pair = user_pair(K, mu)
        limit = discrete_bound(pair, 10_000, 3.0, 0.1).bound_value
        assert asymptotic_discrete(pair, 0.1) >= limit - 1e-12


def test_discrete_bound_monotone_in_k_and_mu():
    base = discrete_bound(user_pair(2.0, 0.5), 7, 0.4, 0.05).bound_value
    for K in (2.5, 3.0, 4.0):
        assert discrete_bound(user_pair(K, 0.5), 7, 0.4, 0.05).bound_value \
            >= base - 1e-12
    for mu in (0.6, 0.7, 0.9):
        assert discrete_bound(user_pair(2.0, mu), 7, 0.4, 0.05).bound_value \
            >= base - 1e-12


def test_case_split_continuity_at_threshold():
    for K, mu in [(4.0, 0.5), (2.0, 0.3), (1.0, 0.9), (5.0, 0.8)]:
        pair = user_pair(K, mu)
        nh = n_hat(K, mu)
        pre = 1.0 + nh * 0.2                      # pre form at n = n_hat
        post = K * mu ** nh * 1.0 + (nh + 0.0) * 0.2
        if K * mu ** nh <= 1.0:
            assert post <= pre + 1e-12


def test_continuous_bound_limit_matches_cor7():
    pair = user_pair(1.0, 1.0, kind="continuous")
    fb = continuous_bound(pair, 200.0, 0.0, 0.1)
    assert fb.bound_value == pytest.approx(0.1, abs=1e-12)
    assert asymptotic_continuous(pair, 0.1) == pytest.approx(0.1, abs=1e-15)
    pair2 = user_pair(3.0, 0.7, kind="continuous")
    limit = continuous_bound(pair2, 500.0, 2.0, 0.1).bound_value
    assert asymptotic_continuous(pair2, 0.1) == pytest.approx(limit, abs=1e-12)


def test_continuous_bound_at_zero():
    pair = user_pair(1.0, 2.0, kind="continuous")
    assert continuous_bound(pair, 0.0, 0.55, 1.0).bound_value == pytest.approx(0.55)


def test_continuous_bound_with_small_prefactor_is_nonnegative():
    # for K < 1 the perturbation term integrates K e^{-nu s} from 0 to t
    pair = user_pair(0.01, 0.5, kind="continuous")
    fb = continuous_bound(pair, 0.0, 0.3, 1.0)
    assert (fb.regime, fb.bound_value) == ("pre_threshold", 0.3)
    for t in (0.5, 2.0, 40.0):
        fb = continuous_bound(pair, t, 0.0, 1.0)
        assert fb.perturbation_term == pytest.approx(
            0.02 * (1.0 - math.exp(-0.5 * t)), rel=1e-12)
    assert asymptotic_continuous(pair, 1.0) == pytest.approx(0.02, rel=1e-12)


def test_continuous_bound_depolarizing_formula():
    pair = user_pair(1.0, 1.0, kind="continuous")
    for t in (0.5, 1.0, 3.0):
        fb = continuous_bound(pair, t, 0.0, 0.1)
        assert fb.bound_value == pytest.approx((1 - math.exp(-t)) * 0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# pair recipes


def test_pair_chi2_depolarizing():
    pair = pair_chi2(depolarizing_channel(0.5))
    assert pair.K == pytest.approx(1.0, abs=1e-9)
    assert pair.rate == pytest.approx(0.5, abs=1e-9)
    assert pair.valid and pair.validity_checked_to >= 50
    sv = pair.details["singular_values"]
    assert np.allclose(sv, [1.0, 0.5, 0.5, 0.5], atol=1e-9)


def test_pair_chi2_unital_channel_has_unit_k():
    pair = pair_chi2(pauli_channel(0.2, 0.1, 0.05))
    assert pair.K == pytest.approx(1.0, abs=1e-9)


def test_pair_chi2_skewed_stationary_state():
    # two-state chain with stationary distribution (0.9, 0.1)
    t = from_stochastic([[0.9, 0.1], [0.9, 0.1]])
    pair = pair_chi2(t)
    assert pair.details["lambda_min"] == pytest.approx(0.1, abs=1e-9)
    assert pair.K == pytest.approx(3.0, abs=1e-9)
    assert pair.valid


def test_pair_chi2_rejects_rank_deficient_state():
    with pytest.raises(DomainError):
        pair_chi2(amplitude_damping_channel(1.0))


def test_pair_chi2_rejects_non_unique():
    with pytest.raises(HypothesisError):
        pair_chi2(identity_channel(2))


def test_pair_detailed_balance_depolarizing():
    pair = pair_detailed_balance(depolarizing_channel(0.5))
    assert pair.K == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert pair.rate == pytest.approx(0.5, abs=1e-9)
    assert pair.valid


def test_pair_detailed_balance_unital_qubit():
    pair = pair_detailed_balance(pauli_channel(0.15, 0.1, 0.2))
    assert pair.K == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_pair_detailed_balance_rejects_rotated_damping():
    theta = 0.7
    u = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]], dtype=complex)
    t = compose(from_kraus([u]), amplitude_damping_channel(0.3))
    with pytest.raises(DomainError):
        pair_detailed_balance(t)


def test_pair_spectral_eq10_depolarizing_fixture():
    pair = pair_spectral_eq10(depolarizing_channel(0.5), mu=0.6, n_check=100)
    assert pair.details["linear_factor_count"] == 2
    assert pair.details["product_relaxation"] == pytest.approx(35.0 / 3.0,
                                                               rel=1e-3)
    assert pair.K == pytest.approx(pair.details["k_circle"], rel=1e-12)
    assert pair.K <= pair.details["k_product"] + 1e-9
    assert pair.valid and pair.validity_checked_to >= 100
    # bound dominates the true decay ||T^n - T^inf|| = 0.5^n
    for n in (0, 1, 10, 100):
        assert pair.K * 0.6 ** n >= 0.5 ** n - 1e-12


def test_pair_spectral_eq10_zero_delta():
    pair = pair_spectral_eq10(completely_depolarizing(2), mu=0.5)
    assert pair.details["linear_factor_count"] == 1
    assert pair.details["product_relaxation"] == pytest.approx(2.0, abs=1e-9)
    assert pair.valid


def test_pair_spectral_eq10_rejects_mu_inside_spectrum():
    with pytest.raises(DomainError):
        pair_spectral_eq10(depolarizing_channel(0.5), mu=0.4)


def test_pair_spectral_eq10_random_diagonalizable():
    from qms.spectral import spectral_quantities
    count = 0
    for seed in range(12):
        t = random_channel(2, 4, derive_seed(500, seed))
        sub = spectral_quantities(t).subdominant_modulus
        mu = (1.0 + sub) / 2.0
        try:
            pair = pair_spectral_eq10(t, mu=mu, n_check=100, seed=seed)
        except DomainError:
            continue
        assert pair.valid and pair.validity_checked_to >= 100
        count += 1
    assert count >= 10


def test_validation_poisons_undersized_k():
    t = depolarizing_channel(0.5)
    bogus = user_pair(0.01, 0.5)
    validate_pair_on_channel(bogus, t, n_max=20)
    assert not bogus.valid
    assert bogus.details["validation_failures"]
    rho0 = basis_state(2, 0)
    with pytest.raises(DomainError):
        discrete_trajectory_check(t, depolarizing_channel(0.6), rho0, rho0,
                                  10, bogus)


# ---------------------------------------------------------------------------
# trajectory checks


def test_trajectory_depolarizing_fixture():
    t = depolarizing_channel(0.5)
    e = depolarizing_channel(0.6)
    pair = pair_chi2(t, n_check=50)
    rho0 = basis_state(2, 0)
    rows = discrete_trajectory_check(t, e, rho0, rho0, 50, pair, seed=3)
    for n, row in enumerate(rows):
        assert row.exact == pytest.approx(abs(0.5 ** n - 0.4 ** n), abs=1e-12)
        if n >= 1:
            assert row.bound == pytest.approx(0.2 * (1 - 0.5 ** n), abs=1e-12)
        assert row.slack >= -1e-9
    assert abs(rows[1].exact - rows[1].bound) <= 1e-9   # equality at n = 1


def test_trajectory_same_map_decays_initial_distance():
    t = depolarizing_channel(0.5)
    pair = pair_chi2(t)
    rho0 = basis_state(2, 0)
    sigma0 = basis_state(2, 1)
    rows = discrete_trajectory_check(t, t, rho0, sigma0, 20, pair, seed=1)
    for n, row in enumerate(rows):
        assert row.exact == pytest.approx(2.0 * 0.5 ** n, abs=1e-12)
        assert row.slack >= -1e-9
    rows_zero = discrete_trajectory_check(t, t, rho0, rho0, 10, pair, seed=1)
    assert all(r.exact <= 1e-12 for r in rows_zero)


def test_trajectory_random_small_perturbation():
    from qms.ensembles import perturb_channel, random_density
    for seed in range(4):
        t = random_channel(2, 4, derive_seed(600, seed))
        e = perturb_channel(t, 1e-3, derive_seed(601, seed))
        pair = pair_chi2(t, n_check=200, seed=seed)
        rho0 = random_density(2, derive_seed(602, seed))
        sigma0 = random_density(2, derive_seed(603, seed))
        rows = discrete_trajectory_check(t, e, rho0, sigma0, 200, pair,
                                         restarts=4, seed=seed)
        assert min(r.slack for r in rows) >= -1e-6


def test_trajectory_requires_unique_stationary_state():
    pair = user_pair(1.0, 0.5)
    rho0 = basis_state(2, 0)
    with pytest.raises(HypothesisError):
        discrete_trajectory_check(identity_channel(2), identity_channel(2),
                                  rho0, rho0, 5, pair)


def test_trajectory_strict_raises_on_violation(monkeypatch):
    from qms import finite_time
    t = depolarizing_channel(0.5)
    e = identity_channel(2)
    # a deliberately understated perturbation norm forces violations
    monkeypatch.setattr(finite_time, "_perturbation_norm", lambda *args: 1e-6)
    pair = pair_chi2(t)
    rho0 = basis_state(2, 0)
    with pytest.raises(BoundViolationError):
        discrete_trajectory_check(t, e, rho0, rho0, 10, pair)
    rows = discrete_trajectory_check(t, e, rho0, rho0, 10, pair, strict=False)
    assert any(r.slack < -1e-6 for r in rows)


def test_continuous_trajectory_depolarizing_fixture():
    lt = depolarizing_generator(1.0)
    le = depolarizing_generator(1.1)
    pair = pair_chi2_generator(lt, t_max=20.0, samples=100)
    assert pair.K == pytest.approx(1.0, abs=1e-9)
    assert pair.rate == pytest.approx(1.0, abs=1e-9)
    rho0 = basis_state(2, 0)
    rows = continuous_trajectory_check(lt, le, rho0, rho0, 20.0, 100, pair,
                                       seed=5)
    times = np.linspace(0.0, 20.0, 100)
    for tt, row in zip(times, rows):
        assert row.exact == pytest.approx(abs(math.exp(-tt) - math.exp(-1.1 * tt)),
                                          abs=1e-10)
        assert row.bound == pytest.approx((1 - math.exp(-tt)) * 0.1, abs=1e-6)
        assert row.slack >= -1e-9
    assert rows[0].bound == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("continuous", [False, True])
def test_zero_horizon_validates_a_fresh_pair(continuous):
    # a fresh pair reads validity_checked_to 0 without any check; at
    # horizon 0 it must still be validated, and K = 0.01 fails at n = t = 0
    rho0 = basis_state(2, 0)
    pair = user_pair(0.01, 0.5, "continuous" if continuous else "discrete")
    assert not pair.validated_to(0.0)
    with pytest.raises(DomainError, match="failed empirical validation"):
        if continuous:
            continuous_trajectory_check(depolarizing_generator(1.0),
                                        depolarizing_generator(1.1), rho0, rho0,
                                        0.0, 2, pair)
        else:
            discrete_trajectory_check(depolarizing_channel(0.5),
                                      depolarizing_channel(0.6), rho0, rho0, 0,
                                      pair)
    failures = pair.details["validation_failures"]
    assert len(failures) == (2 if continuous else 1)   # the grid is [0, 0] or [0]
    for failure in failures:
        assert failure["t" if continuous else "n"] == 0
        assert failure["estimate"] > failure["certified"] == pytest.approx(0.01)


def test_zero_horizon_passing_pair_is_validated_once():
    rho0 = basis_state(2, 0)
    pair = user_pair(1.0, 0.5)
    rows = discrete_trajectory_check(depolarizing_channel(0.5),
                                     depolarizing_channel(0.6), rho0, rho0, 0,
                                     pair)
    assert len(rows) == 1 and pair.valid and pair.validated_to(0)
    assert pair.details["validation_failures"] == []


def test_continuous_trajectory_derives_pair_when_missing():
    from qms.ensembles import perturb_generator, random_density, random_generator
    lt = random_generator(2, 2, seed=711, check=False)
    le = perturb_generator(lt, 1e-2, seed=712)
    rho0 = random_density(2, 713)
    # the chi^2 pair derived on the trajectory's own time grid
    pair = pair_chi2_generator(lt, t_max=10.0, samples=40, seed=7)
    rows = continuous_trajectory_check(lt, le, rho0, rho0, 10.0, 40, pair,
                                       restarts=4, seed=7)
    assert min(r.slack for r in rows) >= -1e-6
    assert rows[0].recipe == "chi2"


def test_continuous_pair_detailed_balance_generator():
    pair = pair_detailed_balance_generator(depolarizing_generator(1.0))
    assert pair.K == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert pair.rate == pytest.approx(1.0, abs=1e-9)
    assert pair.valid


# ---------------------------------------------------------------------------
# chunked validation against a point-by-point reference


def _reference_estimates(grid, advance, p_inf, probes):
    """One probe bound per grid point, as the validators once took them."""
    current = np.eye(p_inf.shape[0], dtype=complex)
    estimates = []
    for i in range(len(grid)):
        if i:
            current = advance(current)
        estimates.append(norm_lower_bound_probes(current - p_inf, probes))
    return estimates


def _reference_validation(pair, grid, estimates, decay):
    """(checked_to, valid, failures) of the point-by-point check loop."""
    checked_to = prev = -1
    failures = []
    for x, estimate in zip(grid, estimates):
        certified = pair.K * decay(x)
        if estimate <= certified + VALIDATION_TOL:
            if checked_to == prev:
                checked_to = x
        else:
            failures.append((x, estimate, certified))
        prev = x
    return float(max(checked_to, 0)), not failures, failures


def _slow_channel(d):
    # mostly the identity, so ||T^n - T^inf|| is still well above the
    # tolerance at n = 200 and a too-fast pair fails deep into the grid
    m = 0.96 * np.eye(d * d) + 0.04 * random_channel(d, 2, 10 + d).matrix
    return SuperOperator(d, m)


def _slow_generator(d):
    from qms.ensembles import random_generator
    return GeneratorMap(d, 0.05 * random_generator(d, 2, 20 + d, check=False).matrix)


def _assert_same_validation(pair, reference, key):
    checked_to, valid, failures = reference
    assert pair.validity_checked_to == checked_to
    assert pair.valid is valid
    got = pair.details["validation_failures"]
    assert [f[key] for f in got] == [x for x, _, _ in failures]
    for f, (_, estimate, certified) in zip(got, failures):
        assert f["estimate"] == pytest.approx(estimate, rel=1e-14, abs=1e-14)
        assert f["certified"] == certified


@pytest.mark.parametrize("length", [1, 63, 64, 65, 201])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_chunked_channel_validation_matches_reference(d, length):
    t = _slow_channel(d)
    chi2 = pair_chi2(t, n_check=0)
    sub = spectral_quantities(t).subdominant_modulus
    eq10 = pair_spectral_eq10(t, (1.0 + sub) / 2.0, n_check=0)
    grid = range(length)
    estimates = _reference_estimates(grid, lambda p: p @ t.matrix,
                                     fixed_point_analysis(t).projector.matrix,
                                     probe_inputs(d, seed=3))
    # the last two fail: deep into the grid, and at every point
    for K, mu in [(chi2.K, chi2.rate), (eq10.K, eq10.rate),
                  (chi2.K, chi2.rate ** 3), (0.0, 0.5)]:
        pair = validate_pair_on_channel(user_pair(K, mu), t, n_max=length - 1,
                                        seed=3)
        reference = _reference_validation(pair, grid, estimates,
                                          lambda n: mu ** n)
        _assert_same_validation(pair, reference, "n")


@pytest.mark.parametrize("length", [1, 63, 64, 65, 201])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_chunked_generator_validation_matches_reference(d, length):
    gen = _slow_generator(d)
    chi2 = pair_chi2_generator(gen, t_max=40.0, samples=1)
    grid = np.linspace(0.0, 40.0, length).tolist()
    step = matrix_exp(gen.matrix, grid[1] - grid[0]) if length > 1 else None
    estimates = _reference_estimates(
        grid, lambda p: step @ p,
        fixed_point_analysis(gen.unit_time_map).projector.matrix,
        probe_inputs(d, seed=4))
    for K, nu in [(chi2.K, chi2.rate), (chi2.K, 3.0 * chi2.rate), (0.0, 1.0)]:
        pair = validate_pair_on_generator(user_pair(K, nu, "continuous"), gen,
                                          t_max=40.0, samples=length, seed=4)
        reference = _reference_validation(pair, grid, estimates,
                                          lambda tt: math.exp(-nu * tt))
        _assert_same_validation(pair, reference, "t")


def test_validation_takes_one_trace_norm_batch_per_chunk(count_calls):
    from qms import linalg
    t = random_channel(2, 4, 5)
    pair = pair_chi2(t, n_check=0)
    batches = count_calls(linalg, "trace_norm_batch")
    validate_pair_on_channel(pair, t, n_max=200)
    # 201 grid points in runs of 64, where one batch per point would be 201
    assert len(batches) <= math.ceil(201 / 64)


def test_pairs_on_one_channel_share_their_probe_bounds(count_calls):
    from qms import linalg
    t = random_channel(3, 4, 6)
    sub = spectral_quantities(t).subdominant_modulus
    batches = count_calls(linalg, "trace_norm_batch")
    chi2 = pair_chi2(t, n_check=200, seed=2)
    eq10 = pair_spectral_eq10(t, (1.0 + sub) / 2.0, n_check=200, seed=2)
    # one evaluation of the 201 grid points, in runs of 64, for both pairs
    assert len(batches) == math.ceil(201 / 64)
    assert chi2.validity_checked_to == eq10.validity_checked_to == 200
    # a pair of its own on a new horizon or seed evaluates its own grid
    validate_pair_on_channel(user_pair(chi2.K, chi2.rate), t, n_max=200, seed=3)
    validate_pair_on_channel(user_pair(chi2.K, chi2.rate), t, n_max=100, seed=2)
    assert len(batches) == math.ceil(201 / 64) + math.ceil(201 / 64) + 2


def test_shared_probe_bounds_keep_each_pairs_own_failures():
    t = _slow_channel(3)
    chi2 = pair_chi2(t, n_check=200, seed=1)
    failing = validate_pair_on_channel(user_pair(chi2.K, chi2.rate ** 3), t,
                                       n_max=200, seed=1)
    again = pair_chi2(t, n_check=200, seed=1)
    assert chi2.valid and again.valid and not again.details["validation_failures"]
    assert not failing.valid and failing.details["validation_failures"]
    assert again.to_dict() == chi2.to_dict()
