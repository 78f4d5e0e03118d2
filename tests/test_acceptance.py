"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is deterministic and sized for a laptop.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from qms.channels import (DensityMatrix, SuperOperator, basis_state,
                          depolarizing_channel, depolarizing_generator,
                          from_stochastic, identity_channel, pauli_channel)
from qms.contraction import norm_1to1, tau
from qms.ensembles import (perturb_channel, perturb_generator, random_channel,
                           random_density, random_generator)
from qms.errors import DomainError, IllConditionedStructureError
from qms.finite_time import (asymptotic_discrete, continuous_trajectory_check,
                             discrete_bound, discrete_trajectory_check,
                             pair_chi2, pair_chi2_generator,
                             pair_detailed_balance, pair_spectral_eq10,
                             user_pair)
from qms.linalg import dagger, trace_norm, vec, unvec
from qms.rng import SplitMix64, derive_seed
from qms.spectral import fixed_point_analysis, fundamental_map, spectral_quantities
from qms.stability import SPECTRAL_UPPER_COEFF

MASTER = 20260811


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def stationary_from(analysis, d, seed):
    m = analysis.projector.apply(random_density(d, seed).matrix)
    m = (m + dagger(m)) / 2
    return DensityMatrix(d, m / np.trace(m).real)


def exact_qubit_tau(t):
    """tau of a Hermiticity-preserving qubit map, from its closed form."""
    est = tau(t)
    assert est.method == "analytic"
    return est.value


# ---------------------------------------------------------------------------
# criterion 1: the exact displacement identity


def test_criterion_1_exact_identity():
    counts = {2: 600, 3: 300, 4: 120}
    worst = 0.0
    total = 0
    for d, n in counts.items():
        for i in range(n):
            seed = derive_seed(MASTER, 1000 * d + i)
            t1 = random_channel(d, d * d, derive_seed(seed, 1))
            t2 = random_channel(d, d * d, derive_seed(seed, 2))
            analysis1 = fixed_point_analysis(t1)
            analysis2 = fixed_point_analysis(t2)
            rho2 = stationary_from(analysis2, d, derive_seed(seed, 3))
            rho1 = analysis1.projector.apply(rho2.matrix)
            z1 = fundamental_map(t1, analysis1)
            lhs = rho1 - rho2.matrix
            rhs = unvec(z1.matrix @ ((t1.matrix - t2.matrix) @ vec(rho2.matrix)), d)
            worst = max(worst, trace_norm(lhs - rhs))
            total += 1
    report(1, "exact identity", worst <= 1e-8,
           f"max residual {worst:.3g} over {total} triples, d in 2..4")


# ---------------------------------------------------------------------------
# criteria 2-4 share one random qubit ensemble


@dataclass
class QubitCase:
    tau_z: float
    tau_t: float
    unique: bool
    min_dist: float
    actual: float
    norm_general: float


@pytest.fixture(scope="module")
def qubit_ensemble():
    cases = []
    for i in range(1000):
        seed = derive_seed(MASTER, 50_000 + i)
        t1 = random_channel(2, 4, derive_seed(seed, 1))
        if i % 2 == 0:
            t2 = random_channel(2, 4, derive_seed(seed, 2))
        else:
            t2 = perturb_channel(t1, 0.05, derive_seed(seed, 2))
        analysis1 = fixed_point_analysis(t1)
        analysis2 = fixed_point_analysis(t2)
        rho2 = stationary_from(analysis2, 2, derive_seed(seed, 3))
        z1 = fundamental_map(t1, analysis1)
        tau_z, tau_t = exact_qubit_tau(z1), exact_qubit_tau(t1)
        spec1 = spectral_quantities(t1)
        rho1 = analysis1.projector.apply(rho2.matrix)
        actual = trace_norm(rho1 - rho2.matrix)
        dop = SuperOperator(2, t1.matrix - t2.matrix)
        norm_general = max(
            norm_1to1(dop, restarts=6, seed=derive_seed(seed, 4)).value,
            trace_norm(dop.apply(rho2.matrix)))
        cases.append(QubitCase(tau_z=tau_z, tau_t=tau_t,
                               unique=analysis1.multiplicity == 1,
                               min_dist=spec1.min_dist_to_one,
                               actual=actual, norm_general=norm_general))
    return cases


def test_criterion_2_main_inequality(qubit_ensemble):
    worst = math.inf
    for c in qubit_ensemble:
        worst = min(worst, c.tau_z * c.norm_general + 1e-4 - c.actual)
    # tightness witness: depol(1/2) against the identity channel
    t1 = depolarizing_channel(0.5)
    rho2 = basis_state(2, 0)
    z1 = fundamental_map(t1)
    tz = exact_qubit_tau(z1)
    dop = SuperOperator(2, t1.matrix - identity_channel(2).matrix)
    nrm = max(norm_1to1(dop, restarts=8, seed=0).value,
              trace_norm(dop.apply(rho2.matrix)))
    actual = trace_norm(fixed_point_analysis(t1).projector.apply(rho2.matrix)
                        - rho2.matrix)
    tight = abs(actual - 1.0) <= 1e-9 and abs(tz * nrm - 1.0) <= 1e-9
    report(2, "main inequality", worst >= 0.0 and tight,
           f"min slack {worst:.3g} over {len(qubit_ensemble)} pairs; "
           f"tight witness bound {tz * nrm:.12g} vs actual {actual:.12g}")


def test_criterion_3_contraction_bound(qubit_ensemble):
    worst = math.inf
    used = 0
    for c in qubit_ensemble:
        if not c.unique or c.tau_t > 0.999:
            continue
        used += 1
        worst = min(worst, 1.0 / (1.0 - c.tau_t) - c.tau_z)
    eq_worst = 0.0
    for p in (0.2, 0.5, 0.8):
        rep_tau_z = exact_qubit_tau(fundamental_map(depolarizing_channel(p)))
        eq_worst = max(eq_worst, abs(rep_tau_z - 1.0 / p))
    report(3, "contraction bound on the condition number",
           used >= 900 and worst >= -1e-4 and eq_worst <= 1e-6,
           f"min slack {worst:.3g} over {used} channels; "
           f"depolarizing equality error {eq_worst:.3g}")


def test_criterion_4_spectral_sandwich(qubit_ensemble):
    worst_lo = math.inf
    worst_hi = math.inf
    for c in qubit_ensemble:
        if math.isinf(c.min_dist):
            continue
        worst_lo = min(worst_lo, c.tau_z + 1e-4 - 1.0 / c.min_dist)
        worst_hi = min(worst_hi,
                       SPECTRAL_UPPER_COEFF * 8 / c.min_dist - c.tau_z)
    tz = exact_qubit_tau(fundamental_map(depolarizing_channel(0.5)))
    upper = SPECTRAL_UPPER_COEFF * 8 / 0.5
    fixture_ok = abs(tz - 2.0) <= 1e-6 and abs(upper - 258.0612761833) / 258.06 <= 1e-4
    report(4, "spectral sandwich", worst_lo >= 0 and worst_hi >= 0 and fixture_ok,
           f"lower slack {worst_lo:.3g}, upper slack {worst_hi:.3g}; "
           f"fixture tau(Z) {tz:.9g}, upper {upper:.6g}")


# ---------------------------------------------------------------------------
# criterion 5: discrete finite-time bound


def test_criterion_5_discrete_trajectories():
    worst = math.inf
    done = 0
    attempt = 0
    while done < 200:
        seed = derive_seed(MASTER, 90_000 + attempt)
        attempt += 1
        t = random_channel(2, 4, derive_seed(seed, 1))
        e = perturb_channel(t, 1e-2, derive_seed(seed, 2))
        try:
            pair = pair_chi2(t, n_check=200, seed=derive_seed(seed, 3))
        except DomainError:
            continue
        if not pair.valid:
            continue
        rho0 = random_density(2, derive_seed(seed, 4))
        sigma0 = random_density(2, derive_seed(seed, 5))
        rows = discrete_trajectory_check(t, e, rho0, sigma0, 200, pair,
                                         restarts=4, seed=derive_seed(seed, 6),
                                         strict=False)
        worst = min(worst, min(r.slack for r in rows))
        done += 1
    # fixture: equality at n = 1
    t = depolarizing_channel(0.5)
    e = depolarizing_channel(0.6)
    pair = pair_chi2(t, n_check=50)
    rho0 = basis_state(2, 0)
    rows = discrete_trajectory_check(t, e, rho0, rho0, 50, pair, seed=0)
    eq_err = abs(rows[1].exact - rows[1].bound)
    report(5, "discrete finite-time bound",
           worst >= -1e-6 and eq_err <= 1e-9 and attempt <= 220,
           f"min slack {worst:.3g} over {done} pairs (n <= 200); "
           f"fixture |exact - bound| at n=1: {eq_err:.3g}")


# ---------------------------------------------------------------------------
# criterion 6: asymptotic displacement


def test_criterion_6_asymptotic():
    errs = []
    for K, mu in [(1.0, 0.5), (4.0, 0.5), (1.0, 0.3)]:
        pair = user_pair(K, mu)
        limit = discrete_bound(pair, 200_000, 7.0, 0.1).bound_value
        errs.append(abs(asymptotic_discrete(pair, 0.1) - limit))
    # dominates the simulated limsup on the depolarizing fixture
    t = depolarizing_channel(0.5)
    e = depolarizing_channel(0.6)
    pair = pair_chi2(t, n_check=50)
    rho = vec(basis_state(2, 0).matrix)
    sig = rho.copy()
    for _ in range(400):
        rho = t.matrix @ rho
        sig = e.matrix @ sig
    tail = trace_norm(unvec(rho - sig, 2))
    asym = asymptotic_discrete(pair, 0.1)
    report(6, "asymptotic displacement bound",
           max(errs) <= 1e-12 and tail <= asym,
           f"max |corollary - limit| {max(errs):.3g}; "
           f"simulated tail {tail:.3g} <= {asym:.3g}")


# ---------------------------------------------------------------------------
# criterion 7: continuous finite-time bound


def test_criterion_7_continuous_trajectories():
    lt = depolarizing_generator(1.0)
    le = depolarizing_generator(1.1)
    pair = pair_chi2_generator(lt, t_max=20.0, samples=100)
    rho0 = basis_state(2, 0)
    rows = continuous_trajectory_check(lt, le, rho0, rho0, 20.0, 100, pair,
                                       seed=1, strict=False)
    worst_fixture = min(r.slack for r in rows)

    worst = math.inf
    done = 0
    attempt = 0
    while done < 50:
        seed = derive_seed(MASTER, 140_000 + attempt)
        attempt += 1
        gen_t = random_generator(2, 2, derive_seed(seed, 1), check=False)
        gen_e = perturb_generator(gen_t, 1e-2, derive_seed(seed, 2))
        try:
            pair = pair_chi2_generator(gen_t, t_max=20.0, samples=100,
                                       seed=derive_seed(seed, 3))
        except DomainError:
            continue
        if not pair.valid:
            continue
        rho0 = random_density(2, derive_seed(seed, 4))
        sigma0 = random_density(2, derive_seed(seed, 5))
        rows = continuous_trajectory_check(gen_t, gen_e, rho0, sigma0, 20.0,
                                           100, pair, restarts=4,
                                           seed=derive_seed(seed, 6),
                                           strict=False)
        worst = min(worst, min(r.slack for r in rows))
        done += 1
    report(7, "continuous finite-time bound",
           worst_fixture >= -1e-6 and worst >= -1e-6 and attempt <= 65,
           f"fixture min slack {worst_fixture:.3g}; ensemble min slack "
           f"{worst:.3g} over {done} generator pairs, 100 times in [0, 20]")


# ---------------------------------------------------------------------------
# criterion 8: convergence-pair recipes


def test_criterion_8_convergence_pairs():
    # chi^2 on random full-rank channels
    chi_ok = 0
    for i in range(100):
        seed = derive_seed(MASTER, 190_000 + i)
        t = random_channel(2, 4, derive_seed(seed, 1))
        try:
            pair = pair_chi2(t, n_check=50, seed=seed)
        except DomainError:
            continue
        if pair.valid and pair.validity_checked_to >= 50:
            chi_ok += 1

    # detailed balance on its admissible ensembles
    db_ok = 0
    db_total = 0
    gen = SplitMix64(derive_seed(MASTER, 191_000))
    for i in range(50):
        p = gen.uniforms(3) * 0.3
        t = pauli_channel(*p)
        db_total += 1
        pair = pair_detailed_balance(t, n_check=50, seed=i)
        if pair.valid and pair.validity_checked_to >= 50:
            db_ok += 1
    for i in range(50):
        g = SplitMix64(derive_seed(MASTER, 192_000 + i))
        w = g.uniforms(9).reshape(3, 3) + 0.05
        w = (w + w.T) / 2
        s = w / w.sum(axis=1, keepdims=True)
        db_total += 1
        pair = pair_detailed_balance(from_stochastic(s), n_check=50, seed=i)
        if pair.valid and pair.validity_checked_to >= 50:
            db_ok += 1

    # spectral recipe on random diagonalizable qubit channels
    eq_ok = 0
    attempt = 0
    while eq_ok < 100 and attempt < 130:
        seed = derive_seed(MASTER, 193_000 + attempt)
        attempt += 1
        t = random_channel(2, 4, derive_seed(seed, 1))
        sub = spectral_quantities(t).subdominant_modulus
        if sub >= 1.0 - 1e-6:
            continue
        try:
            pair = pair_spectral_eq10(t, mu=(1.0 + sub) / 2.0, n_check=100,
                                      seed=seed)
        except (DomainError, IllConditionedStructureError):
            continue
        if pair.valid and pair.validity_checked_to >= 100:
            eq_ok += 1

    # fixture: linear factor count and the product value, recomputed directly
    fixture = pair_spectral_eq10(depolarizing_channel(0.5), mu=0.6, n_check=100)
    mu = 0.6
    direct_product = ((1 - mu * 0.0) / (mu - 0.0)) * ((1 - mu * 0.5) / (mu - 0.5))
    prod_err = abs(fixture.details["product_relaxation"] - direct_product) \
        / direct_product
    fixture_ok = (fixture.details["linear_factor_count"] == 2
                  and prod_err <= 1e-3
                  and abs(direct_product - 11.667) / 11.667 <= 1e-3)

    report(8, "convergence pairs",
           chi_ok >= 95 and db_ok == db_total and eq_ok >= 100 and fixture_ok,
           f"chi2 valid {chi_ok}/100, detailed balance {db_ok}/{db_total}, "
           f"spectral {eq_ok} channels to n=100; fixture |m|="
           f"{fixture.details['linear_factor_count']}, product "
           f"{fixture.details['product_relaxation']:.6g} vs direct {direct_product:.6g}")


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism


def test_criterion_9_cli_determinism(tmp_path):
    from qms.cli import main
    from qms.serialize import channel_to_dict, dumps_json

    chan1 = tmp_path / "t1.json"
    chan2 = tmp_path / "t2.json"
    chan1.write_text(dumps_json(channel_to_dict(depolarizing_channel(0.5))))
    chan2.write_text(dumps_json(channel_to_dict(depolarizing_channel(0.6))))

    invocations = [
        ["analyze", str(chan1), "--format", "json", "--seed", "7"],
        ["validate", str(chan1), "--format", "json", "--samples", "200",
         "--seed", "7"],
        ["compare", str(chan1), str(chan2), "--restarts", "8", "--seed", "7",
         "--format", "json"],
        ["trajectory", str(chan1), str(chan2), "--steps", "25",
         "--pair", "auto-chi2", "--seed", "7", "--format", "csv"],
        ["pairs", str(chan1), "--seed", "7", "--format", "json"],
        ["ensemble", "--dim", "2", "--count", "3", "--eps", "1e-2",
         "--seed", "7", "--steps", "10", "--restarts", "4", "--format", "csv"],
    ]
    all_same = True
    for k, argv in enumerate(invocations):
        out_a = tmp_path / f"run{k}a.out"
        out_b = tmp_path / f"run{k}b.out"
        code_a = main(argv + ["--out", str(out_a)])
        code_b = main(argv + ["--out", str(out_b)])
        if code_a != code_b or out_a.read_bytes() != out_b.read_bytes():
            all_same = False
    report(9, "CLI determinism", all_same,
           f"{len(invocations)} commands repeated byte-identically")
