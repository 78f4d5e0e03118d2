import math

import numpy as np
import pytest

from qms.channels import (GeneratorMap, SuperOperator,
                          amplitude_damping_channel, basis_state, compose,
                          completely_depolarizing, depolarizing_channel,
                          depolarizing_generator, from_kraus, from_lindblad,
                          from_stochastic, identity_channel, pauli_channel)
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
from qms.linalg import matrix_exp, vec
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


@pytest.mark.parametrize("K, mu, gap", [(2.0, 0.9, 0.434), (5.0, 0.5, 0.75),
                                        (1.0, 0.5, 0.0), (4.0, 0.5, 0.0),
                                        (0.5, 0.9, 5.0)])
def test_asymptotic_exceeds_limit_by_the_crossover_gap(K, mu, gap):
    # the corollary (n_hat + 1/(1 - mu)) dT is looser than the n -> infinity
    # limit (n_hat + K mu^n_hat/(1 - mu)) dT by (1 - K mu^n_hat)/(1 - mu) dT
    pair = user_pair(K, mu)
    nh = n_hat(K, mu)
    for dT in (0.1, 1.0):
        limit = discrete_bound(pair, 10_000, 0.0, dT).bound_value
        excess = asymptotic_discrete(pair, dT) - limit
        assert excess == pytest.approx((1.0 - K * mu ** nh) / (1.0 - mu) * dT,
                                       abs=1e-12)
        assert excess == pytest.approx(gap * dT, abs=5e-4 * dT)
        if K > 1.0:
            assert -1e-12 <= excess < dT


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


def traceless_projection():
    # X -> X - tr(X) I/2, not trace-preserving: it fixes every traceless
    # matrix, so its fixed space has dimension 3 and holds no state
    vi = vec(np.eye(2))
    return SuperOperator(2, np.eye(4) - np.outer(vi, vi) / 2)


@pytest.mark.parametrize("recipe", [pair_chi2, pair_detailed_balance])
@pytest.mark.parametrize("make", [lambda: identity_channel(2), traceless_projection],
                         ids=["identity", "traceless_projection"])
def test_pair_recipes_check_uniqueness_before_building_a_state(recipe, make):
    with pytest.raises(HypothesisError, match="unique stationary state"):
        recipe(make())


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


def test_pair_spectral_eq10_circle_never_exceeds_product():
    # each Blaschke factor peaks on |z| = mu at (1 - mu|l|)/(mu - |l|), and
    # the grid can only under-estimate the supremum, so k_circle <= k_product
    # up to roundoff; when all roots lie on one ray from 0 the two tie, and
    # K = min takes whichever rounds lower
    from qms.rng import SplitMix64
    maps = [random_channel(d, r, derive_seed(510 + 10 * d + r, s))
            for d in (2, 3) for r in (2, d * d) for s in range(6)]
    for s in range(16):
        rows = SplitMix64(derive_seed(520, s)).normals(9).reshape(3, 3) ** 2
        maps.append(from_stochastic(rows / rows.sum(axis=1, keepdims=True)))
    maps.append(from_stochastic([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1],
                                 [0.3, 0.3, 0.4]]))
    for t in maps:
        sub = spectral_quantities(t).subdominant_modulus
        pair = pair_spectral_eq10(t, (1.0 + sub) / 2.0, n_check=0)
        k_circle, k_product = pair.details["k_circle"], pair.details["k_product"]
        assert k_circle <= k_product * (1.0 + 1e-12)
        assert pair.K == min(k_circle, k_product)


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


@pytest.mark.parametrize("continuous", [False, True],
                         ids=["discrete", "continuous"])
def test_trajectory_requires_unique_stationary_state(continuous):
    # both clocks refuse before validating and leave the pair untouched
    # (no validation record in its details); on the continuous map a
    # validation of K = 2 would fail and poison it
    rho0 = basis_state(2, 0)
    if continuous:
        pair = user_pair(2.0, 1.0, "continuous")
        gen = from_lindblad(np.diag([1.0, -1.0]), [])
        with pytest.raises(HypothesisError, match="multiplicity 2"):
            continuous_trajectory_check(gen, depolarizing_generator(1.0),
                                        rho0, rho0, 5.0, 10, pair)
    else:
        pair = user_pair(1.0, 0.5)
        with pytest.raises(HypothesisError, match="multiplicity 4"):
            discrete_trajectory_check(identity_channel(2), identity_channel(2),
                                      rho0, rho0, 5, pair)
    assert (pair.validity_checked_to, pair.valid) == (0, True)
    assert "validation_failures" not in pair.details


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


_DISCRETE, _CONTINUOUS = user_pair(1.0, 0.5), user_pair(1.0, 0.5, "continuous")
_QUBIT = basis_state(2, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: discrete_bound(_CONTINUOUS, 1, 0.0, 0.0),
     "discrete_bound requires a discrete pair"),
    (lambda: asymptotic_discrete(_CONTINUOUS, 0.1),
     "asymptotic_discrete requires a discrete pair"),
    (lambda: continuous_bound(_DISCRETE, 1.0, 0.0, 0.0),
     "continuous_bound requires a continuous pair"),
    (lambda: asymptotic_continuous(_DISCRETE, 0.1),
     "asymptotic_continuous requires a continuous pair"),
    (lambda: validate_pair_on_channel(_CONTINUOUS, depolarizing_channel(0.5), 5),
     "channel validation requires a discrete pair"),
    (lambda: validate_pair_on_generator(_DISCRETE, depolarizing_generator(1.0),
                                        1.0, 5),
     "generator validation requires a continuous pair"),
    (lambda: discrete_trajectory_check(
        depolarizing_channel(0.5), depolarizing_channel(0.6), _QUBIT, _QUBIT,
        5, _CONTINUOUS),
     "discrete trajectory check requires a discrete pair"),
    (lambda: continuous_trajectory_check(
        depolarizing_generator(1.0), depolarizing_generator(1.1), _QUBIT,
        _QUBIT, 1.0, 5, _DISCRETE),
     "continuous trajectory check requires a continuous pair"),
], ids=["discrete_bound", "asymptotic_discrete", "continuous_bound",
        "asymptotic_continuous", "validate_pair_on_channel",
        "validate_pair_on_generator", "discrete_trajectory_check",
        "continuous_trajectory_check"])
def test_pair_of_the_other_clock_is_refused(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()
    for pair in (_DISCRETE, _CONTINUOUS):
        assert (pair.validity_checked_to, pair.valid) == (0, True)
        assert "validation_failures" not in pair.details


@pytest.mark.parametrize("wrong", ["rho0", "sigma0"])
@pytest.mark.parametrize("continuous", [False, True],
                         ids=["discrete", "continuous"])
def test_trajectory_check_refuses_states_of_another_dimension(continuous, wrong):
    # a qutrit state against qubit maps must be a DomainError (usage,
    # exit 2), not numpy's matmul error
    from qms.channels import maximally_mixed
    states = {"rho0": _QUBIT, "sigma0": _QUBIT, wrong: maximally_mixed(3)}
    if continuous:
        gen = depolarizing_generator(1.0)
        pair = pair_chi2_generator(gen, t_max=1.0, samples=5)
        with pytest.raises(DomainError, match="^generators and states must act "
                                              "on the same dimension$"):
            continuous_trajectory_check(gen, depolarizing_generator(1.1),
                                        t_max=1.0, steps=5, pair=pair, **states)
    else:
        t = depolarizing_channel(0.5)
        pair = pair_chi2(t, n_check=5)
        with pytest.raises(DomainError, match="^maps and states must act on "
                                              "the same dimension$"):
            discrete_trajectory_check(t, depolarizing_channel(0.6), n_steps=5,
                                      pair=pair, **states)


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
    # a fresh pair reads validity_checked_to 0 and valid without any check;
    # at horizon 0 it must still be validated, and K = 0.01 fails at n = t = 0
    rho0 = basis_state(2, 0)
    pair = user_pair(0.01, 0.5, "continuous" if continuous else "discrete")
    target = depolarizing_generator(1.0) if continuous else depolarizing_channel(0.5)
    assert (pair.validity_checked_to, pair.valid) == (0, True)
    with pytest.raises(DomainError, match="failed empirical validation"):
        if continuous:
            continuous_trajectory_check(target, depolarizing_generator(1.1),
                                        rho0, rho0, 0.0, 2, pair)
        else:
            discrete_trajectory_check(target, depolarizing_channel(0.6), rho0,
                                      rho0, 0, pair)
    failures = pair.details["validation_failures"]
    assert len(failures) == (2 if continuous else 1)   # the grid is [0, 0] or [0]
    for failure in failures:
        assert failure["t" if continuous else "n"] == 0
        assert failure["estimate"] > failure["certified"] == pytest.approx(0.01)


@pytest.mark.parametrize("continuous", [False, True])
def test_a_pair_validated_on_one_map_is_validated_again_on_another(continuous):
    # the chi2 pair of a fast mixer (K = 1, rate 0.8 or 1) is checked on it
    # to the full horizon; a slow mixer with the same fixed point fails it
    # at the first step, so reusing the first check there would certify a
    # trajectory the bound does not cover
    rho0, sigma0 = basis_state(2, 0), basis_state(2, 1)
    if continuous:
        fast, slow = depolarizing_generator(1.0), depolarizing_generator(0.05)
        pair = pair_chi2_generator(fast, t_max=10.0, samples=20)
        check = lambda: continuous_trajectory_check(
            slow, depolarizing_generator(0.06), rho0, sigma0, 10.0, 20, pair,
            strict=False)
    else:
        fast = depolarizing_channel(0.2)
        slow = SuperOperator(2, 0.98 * identity_channel(2).matrix
                             + 0.02 * completely_depolarizing(2).matrix)
        pair = pair_chi2(fast, n_check=50)
        check = lambda: discrete_trajectory_check(
            slow, depolarizing_channel(0.1), rho0, sigma0, 50, pair,
            strict=False)
    assert pair.valid and pair.validity_checked_to == (10.0 if continuous else 50)
    with pytest.raises(DomainError, match="failed empirical validation"):
        check()
    assert not pair.valid and pair.validity_checked_to == 0
    assert pair.details["validation_failures"][0]["t" if continuous else "n"] > 0


def test_a_pair_validated_on_a_coarse_grid_is_validated_again_on_a_fine_one():
    # K = 1, nu = 5 holds at t = 0 and t = 20 of a 2-sample grid but not at
    # t = 2 of the 11-sample grid (probe estimate 0.135 against 4.5e-5)
    gen = depolarizing_generator(1.0)
    pair = validate_pair_on_generator(user_pair(1.0, 5.0, "continuous"), gen,
                                      t_max=20.0, samples=2)
    assert pair.valid and pair.validity_checked_to == 20.0
    rho0 = basis_state(2, 0)
    with pytest.raises(DomainError, match="failed empirical validation"):
        continuous_trajectory_check(gen, depolarizing_generator(1.1), rho0,
                                    rho0, 20.0, 11, pair)
    assert not pair.valid and pair.validity_checked_to == 0.0
    assert pair.details["validation_failures"][0]["t"] == 2.0


@pytest.mark.parametrize("continuous", [False, True])
def test_a_check_on_the_pairs_own_grid_reads_its_memoised_probe_bounds(
        count_calls, continuous):
    # the recipe and the trajectory check validate on one (map, grid, seed):
    # the probe bounds are computed once, and each validation stands alone
    from qms import finite_time
    rho0, sigma0 = basis_state(2, 0), basis_state(2, 1)
    # the memo's misses are its evaluations (a counting wrapper around it
    # would count its hits too)
    misses = finite_time._probe_bounds.cache_info().misses
    validations = count_calls(finite_time, "validate_pair_on_" + (
        "generator" if continuous else "channel"))
    if continuous:
        gen = depolarizing_generator(1.0)
        pair = pair_chi2_generator(gen, t_max=10.0, samples=20, seed=3)
        rows = continuous_trajectory_check(gen, depolarizing_generator(1.1),
                                           rho0, sigma0, 10.0, 20, pair, seed=3)
    else:
        t = depolarizing_channel(0.5)
        pair = pair_chi2(t, n_check=30, seed=3)
        rows = discrete_trajectory_check(t, depolarizing_channel(0.6), rho0,
                                         sigma0, 30, pair, seed=3)
    assert len(validations) == 2
    assert finite_time._probe_bounds.cache_info().misses == misses + 1
    assert pair.valid and len(rows) == (20 if continuous else 31)
    # another seed is another probe set, evaluated on its own
    if continuous:
        continuous_trajectory_check(gen, depolarizing_generator(1.1), rho0,
                                    sigma0, 10.0, 20, pair, seed=4)
    else:
        discrete_trajectory_check(t, depolarizing_channel(0.6), rho0, sigma0,
                                  30, pair, seed=4)
    assert len(validations) == 3
    assert finite_time._probe_bounds.cache_info().misses == misses + 2


def test_zero_horizon_passing_pair_is_validated_once(count_calls):
    from qms import finite_time
    rho0 = basis_state(2, 0)
    pair = user_pair(1.0, 0.5)
    t = depolarizing_channel(0.5)
    calls = count_calls(finite_time, "validate_pair_on_channel")
    rows = discrete_trajectory_check(t, depolarizing_channel(0.6), rho0, rho0,
                                     0, pair)
    assert len(rows) == 1 and pair.valid and pair.validity_checked_to == 0
    assert pair.details["validation_failures"] == []
    assert [args[:2] for args in calls] == [(pair, t)]


@pytest.mark.parametrize("recipe", [
    lambda t, n: pair_chi2(t, n_check=n),
    lambda t, n: pair_detailed_balance(t, n_check=n),
    lambda t, n: pair_spectral_eq10(t, 0.75, n_check=n)])
def test_discrete_recipes_refuse_a_negative_horizon(recipe):
    # no grid point lies below n = 0, so a negative horizon validates
    # nothing and must not come back as a valid pair; n = 0 checks n = 0
    t = depolarizing_channel(0.5)
    with pytest.raises(DomainError, match="n_max"):
        recipe(t, -1)
    pair = recipe(t, 0)
    assert pair.valid and pair.validity_checked_to == 0
    assert pair.details["validation_failures"] == []


def test_discrete_validator_and_trajectory_refuse_negative_steps():
    t = depolarizing_channel(0.5)
    with pytest.raises(DomainError, match="n_max"):
        validate_pair_on_channel(user_pair(1.0, 0.5), t, n_max=-1)
    rho0 = basis_state(2, 0)
    pair = pair_chi2(t)
    with pytest.raises(DomainError, match="n_steps"):
        discrete_trajectory_check(t, depolarizing_channel(0.6), rho0, rho0, -1,
                                  pair)


@pytest.mark.parametrize("recipe", [
    lambda gen, n: validate_pair_on_generator(
        user_pair(0.01, 0.5, "continuous"), gen, t_max=0.0, samples=n),
    lambda gen, n: pair_chi2_generator(gen, t_max=0.0, samples=n),
    lambda gen, n: pair_detailed_balance_generator(gen, t_max=0.0, samples=n)])
def test_generator_validation_refuses_an_empty_time_grid(recipe):
    # zero samples check no time, so the pair must not come back valid;
    # one sample checks t = 0, where K = 0.01 fails (||I - P_inf|| > 0.01)
    gen = depolarizing_generator(1.0)
    for samples in (0, -1):
        with pytest.raises(DomainError, match="samples"):
            recipe(gen, samples)
    pair = recipe(gen, 1)
    assert pair.validity_checked_to == 0.0
    assert pair.valid is (pair.recipe != "user_supplied")
    assert len(pair.details["validation_failures"]) == (not pair.valid)


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
    """(checked_to, valid, failures) of the point-by-point check loop, with
    K decay(x) evaluated over the grid as one array, as the bound rows do."""
    checked_to = prev = -1
    failures = []
    bounds = (pair.K * decay(np.asarray(grid))).tolist()
    for x, estimate, certified in zip(grid, estimates, bounds):
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
                                          lambda tt: np.exp(-nu * tt))
        _assert_same_validation(pair, reference, "t")


@pytest.mark.parametrize("first", [False, True])
def test_a_nan_probe_estimate_fails_validation(first):
    from qms.finite_time import _validate_on_grid
    grid = np.arange(5)
    estimates = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    estimates[0 if first else 2] = np.nan
    pair = _validate_on_grid(user_pair(1.0, 0.9), "n", grid, estimates,
                             0.9 ** grid, 132)
    failures = pair.details["validation_failures"]
    assert not pair.valid
    assert pair.validity_checked_to == (0.0 if first else 1.0)
    assert [f["n"] for f in failures] == [0 if first else 2]
    assert type(failures[0]["n"]) is int and math.isnan(failures[0]["estimate"])


def test_certified_decay_is_the_bound_rows_decay_bit_for_bit():
    # past the threshold the bound's initial term with d0 = 1 is K mu^n
    # (or K e^{-nu t}) as the validators evaluate it, one array expression
    from qms.finite_time import _continuous_terms, _discrete_terms
    pair = validate_pair_on_channel(user_pair(3.0, 0.5), _slow_channel(3),
                                    n_max=200)
    _, pre, initial, _ = _discrete_terms(3.0, 0.5, np.arange(201.0), 1.0, 0.0)
    post = [f for f in pair.details["validation_failures"] if not pre[f["n"]]]
    assert len(post) > 150
    assert [f["certified"] for f in post] == initial[[f["n"] for f in post]].tolist()

    times = np.linspace(0.0, 40.0, 201)
    pair = validate_pair_on_generator(user_pair(3.0, 2.0, "continuous"),
                                      _slow_generator(3), t_max=40.0,
                                      samples=201)
    _, pre, initial, _ = _continuous_terms(3.0, 2.0, times, 1.0, 0.0)
    post = [f for f in pair.details["validation_failures"]
            if not pre[np.searchsorted(times, f["t"])]]
    assert len(post) > 150
    assert [f["certified"] for f in post] == initial[
        np.searchsorted(times, [f["t"] for f in post])].tolist()


def test_validation_takes_one_trace_norm_batch_per_chunk(count_calls):
    from qms import linalg
    from qms.finite_time import VALIDATION_CHUNK
    t = random_channel(2, 4, 5)
    pair = pair_chi2(t, n_check=0)
    batches = count_calls(linalg, "trace_norm_batch")
    validate_pair_on_channel(pair, t, n_max=200)
    # 201 grid points in runs of VALIDATION_CHUNK, where one batch per point
    # would be 201
    assert len(batches) <= math.ceil(201 / VALIDATION_CHUNK)


def test_validation_batches_stay_within_one_chunks_bytes(count_calls):
    # a run's stacked probe application at d = 2 is 16 x 132 probes x 4
    # complex values, 135,168 bytes; runs of 64 made it 540,672
    from qms import linalg
    t = random_channel(2, 4, 5)
    batches = count_calls(linalg, "trace_norm_batch")
    validate_pair_on_channel(user_pair(1.0, 0.9), t, n_max=200)
    assert batches
    assert max(np.asarray(args[0]).nbytes for args in batches) <= 135_168


def test_pairs_on_one_channel_share_their_probe_bounds(count_calls):
    from qms import linalg
    from qms.finite_time import VALIDATION_CHUNK
    t = random_channel(3, 4, 6)
    sub = spectral_quantities(t).subdominant_modulus
    batches = count_calls(linalg, "trace_norm_batch")
    chi2 = pair_chi2(t, n_check=200, seed=2)
    eq10 = pair_spectral_eq10(t, (1.0 + sub) / 2.0, n_check=200, seed=2)
    # one evaluation of the 201 grid points, in runs of VALIDATION_CHUNK,
    # for both pairs
    runs = math.ceil(201 / VALIDATION_CHUNK)
    assert len(batches) == runs
    assert chi2.validity_checked_to == eq10.validity_checked_to == 200
    # a pair of its own on a new horizon or seed evaluates its own grid
    validate_pair_on_channel(user_pair(chi2.K, chi2.rate), t, n_max=200, seed=3)
    validate_pair_on_channel(user_pair(chi2.K, chi2.rate), t, n_max=100, seed=2)
    assert len(batches) == runs + runs + math.ceil(101 / VALIDATION_CHUNK)


def test_shared_probe_bounds_keep_each_pairs_own_failures():
    t = _slow_channel(3)
    chi2 = pair_chi2(t, n_check=200, seed=1)
    failing = validate_pair_on_channel(user_pair(chi2.K, chi2.rate ** 3), t,
                                       n_max=200, seed=1)
    again = pair_chi2(t, n_check=200, seed=1)
    assert chi2.valid and again.valid and not again.details["validation_failures"]
    assert not failing.valid and failing.details["validation_failures"]
    assert again.to_dict() == chi2.to_dict()


# ---------------------------------------------------------------------------
# powers by doubling and bound rows in one pass, against per-point references


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 201])
def test_powers_come_in_stacks_of_one_chunk(count):
    from qms.finite_time import VALIDATION_CHUNK, _powers
    m = _slow_channel(2).matrix
    stacks = list(_powers(m, count))
    assert [len(s) for s in stacks] == [
        min(VALIDATION_CHUNK, count - start)
        for start in range(0, count, VALIDATION_CHUNK)]
    if count:
        assert np.array_equal(stacks[0][0], np.eye(4))


def _reference_simulation(step_t, step_e, rho0, sigma0, count):
    """sigma_i and ||rho_i - sigma_i||_1, stepped one point at a time."""
    d = rho0.dim
    rho_v, sigma_v = vec(rho0.matrix), vec(sigma0.matrix)
    sigmas, exact = [], []
    for i in range(count):
        if i:
            rho_v, sigma_v = step_t @ rho_v, step_e @ sigma_v
        sigmas.append(sigma_v.reshape(d, d).T)
        exact.append(np.abs(np.linalg.eigvalsh(
            (rho_v - sigma_v).reshape(d, d).T)).sum())
    return np.array(sigmas), np.array(exact)


@pytest.mark.parametrize("length", [1, 63, 64, 65, 201])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("continuous", [False, True])
def test_simulation_matches_reference(continuous, d, length):
    from qms.ensembles import perturb_channel, random_density
    from qms.finite_time import _simulate
    if continuous:
        gen = _slow_generator(d)
        steps = [matrix_exp(g, 0.4) for g in (gen.matrix, 1.05 * gen.matrix)]
    else:
        t = _slow_channel(d)
        steps = [t.matrix, perturb_channel(t, 0.05, 30 + d).matrix]
    rho0, sigma0 = random_density(d, 40 + d), random_density(d, 50 + d)
    sigmas, exact = _simulate(*steps, rho0, sigma0, length)
    ref_sigmas, ref_exact = _reference_simulation(*steps, rho0, sigma0, length)
    assert sigmas.shape == ref_sigmas.shape and exact.shape == ref_exact.shape
    assert np.abs(sigmas - ref_sigmas).max() <= 1e-13
    assert np.abs(exact - ref_exact).max() <= 1e-13


def _rows_against_scalar_bound(pair, grid, terms, bound):
    from qms.finite_time import _bound_rows
    d0, dT = 0.7, 0.03
    exact = np.linspace(0.0, 0.5, len(grid))
    rows = _bound_rows(pair, grid, terms, exact, d0, dT, strict=False,
                       unit="points")
    assert len(rows) == len(grid)
    for x, ex, row in zip(grid, exact.tolist(), rows):
        fb = bound(pair, x, d0, dT)
        assert row.n_or_t == fb.n_or_t
        assert row.regime == fb.regime
        assert row.bound == pytest.approx(fb.bound_value, rel=1e-15, abs=1e-15)
        assert row.slack == pytest.approx(fb.bound_value - ex, rel=1e-15,
                                          abs=1e-15)
        assert (row.K, row.rate, row.recipe) == (pair.K, pair.rate, pair.recipe)
    return rows


# K <= 1 (and mu = 0) leave n = 0 alone in the pre regime; K = 1/mu^3
# crosses over at exactly n = 3
@pytest.mark.parametrize("K, mu, crossover", [
    (0.5, 0.6, 0), (1.0, 0.5, 0), (8.0, 0.5, 3), (1.0 / 0.3 ** 3, 0.3, 3),
    (3.0, 0.9, 11), (2.0, 0.0, 0)])
def test_discrete_bound_rows_match_per_point_bound(K, mu, crossover):
    from qms.finite_time import _discrete_terms
    pair = user_pair(K, mu)
    rows = _rows_against_scalar_bound(pair, np.arange(201.0), _discrete_terms,
                                      discrete_bound)
    assert [r.regime for r in rows] == (["pre_threshold"] * (crossover + 1)
                                        + ["post_threshold"] * (200 - crossover))


@pytest.mark.parametrize("K, nu", [(0.01, 0.5), (1.0, 1.0), (math.e, 2.0),
                                   (30.0, 0.3)])
def test_continuous_bound_rows_match_per_point_bound(K, nu):
    from qms.finite_time import _continuous_terms
    pair = user_pair(K, nu, "continuous")
    th = t_hat(K, nu)
    grid = np.union1d(np.linspace(0.0, 20.0, 100), [th])
    rows = _rows_against_scalar_bound(pair, grid, _continuous_terms,
                                      continuous_bound)
    at_threshold = rows[int(np.searchsorted(grid, th))]
    assert at_threshold.n_or_t == th and at_threshold.regime == "pre_threshold"


def test_bound_rows_refuse_a_continuous_pair_with_zero_k():
    from qms.finite_time import _bound_rows, _continuous_terms
    pair = user_pair(0.0, 1.0, "continuous")
    with pytest.raises(DomainError, match="K > 0"):
        continuous_bound(pair, 1.0, 0.5, 0.1)
    with pytest.raises(DomainError, match="K > 0"):
        _bound_rows(pair, np.linspace(0.0, 1.0, 5), _continuous_terms,
                    np.zeros(5), 0.5, 0.1, False, "times")


def test_trajectory_checks_evaluate_the_bound_formula_once(count_calls):
    from qms import finite_time
    from qms.ensembles import perturb_channel, random_density
    t = random_channel(2, 4, 5)
    pair = pair_chi2(t, n_check=200)
    rho0 = random_density(2, 6)
    discrete = count_calls(finite_time, "_discrete_terms")
    rows = discrete_trajectory_check(t, perturb_channel(t, 1e-2, 7), rho0, rho0,
                                     200, pair, restarts=2)
    assert len(rows) == 201 and len(discrete) == 1

    lt, le = depolarizing_generator(1.0), depolarizing_generator(1.1)
    gen_pair = pair_chi2_generator(lt, t_max=20.0, samples=100)
    continuous = count_calls(finite_time, "_continuous_terms")
    rows = continuous_trajectory_check(lt, le, rho0, rho0, 20.0, 100, gen_pair,
                                       restarts=2)
    assert len(rows) == 100 and len(continuous) == 1
