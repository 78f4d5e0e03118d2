"""Finite-time perturbation bounds and exponential convergence pairs.

A convergence pair (K, mu) certifies ||T^n - T^inf||_{1->1} <= K mu^n for a
channel (or (K, nu) with e^{-nu t} decay for a semigroup).  Given such a
pair, the distance between two evolutions rho_n = T^n(rho_0) and
sigma_n = E^n(sigma_0) is bounded by a two-regime formula with crossover
step n_hat = ceil(log(1/K) / log(mu)):

    n <= n_hat:  ||rho_0 - sigma_0||_1 + n ||E - T||_{1->1}
    n >  n_hat:  K mu^n ||rho_0 - sigma_0||_1
                 + (n_hat + K (mu^n_hat - mu^n) / (1 - mu)) ||E - T||_{1->1}

and analogously in continuous time with threshold t_hat = log(K)/nu.

Derived pairs are always validated empirically (against a probe-based
lower-bound estimate of ||T^n - T^inf||) before they may be used in
trajectory assertions; a pair that fails validation is returned with
diagnostics but refuses to certify bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .channels import DensityMatrix, GeneratorMap, SuperOperator
from .contraction import norm_1to1, norm_lower_bound_probes, probe_inputs
from .errors import (BoundViolationError, DomainError, HypothesisError,
                     ValidationError)
from .linalg import (dagger, matrix_exp, spectral_norm, trace_norm, trace_norm_batch,
                     vec)
from .spectral import (fixed_point_analysis, minimal_polynomial, delta_map,
                       stationary_states)

RECIPES = ("user_supplied", "chi2", "detailed_balance", "spectral_eq10")

# Tolerance for the empirical certificate check (estimates are exact
# evaluations, so this only absorbs roundoff; the depolarizing family
# saturates the certificate exactly).
VALIDATION_TOL = 1e-8

DEFAULT_VALIDATION_STEPS = 50

# Grid points whose probe bounds are evaluated together during validation.
VALIDATION_CHUNK = 64


@dataclass
class ConvergencePair:
    """Constants certifying exponential convergence, with their provenance.

    ``validity_checked_to`` is the largest n (or t) up to which the
    certified inequality was verified against the norm estimator; ``valid``
    turns False when a check failed, which poisons the pair against use in
    trajectory assertions.
    """

    K: float
    rate: float                       # mu in [0, 1) discrete, nu > 0 continuous
    kind: str                         # "discrete" | "continuous"
    recipe: str
    validity_checked_to: float = 0.0
    valid: bool = True
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("discrete", "continuous"):
            raise ValidationError(f"unknown pair kind {self.kind!r}")
        if self.recipe not in RECIPES:
            raise ValidationError(f"unknown pair recipe {self.recipe!r}")
        if not 0.0 <= self.K < math.inf:
            raise DomainError(f"K must be finite and nonnegative, got {self.K}")
        if self.kind == "discrete" and not 0.0 <= self.rate < 1.0:
            raise DomainError(f"discrete rate mu must lie in [0, 1), got {self.rate}")
        if self.kind == "continuous" and not self.rate > 0.0:
            raise DomainError(f"continuous rate nu must be positive, got {self.rate}")

    def to_dict(self) -> dict:
        return {"K": self.K, "rate": self.rate, "kind": self.kind,
                "recipe": self.recipe,
                "validity_checked_to": self.validity_checked_to,
                "valid": self.valid,
                "details": {k: v for k, v in self.details.items()
                            if isinstance(v, (int, float, str, bool, list))}}

    def validated_to(self, horizon: float) -> bool:
        """Whether a validation ran and reached ``horizon``.  A fresh pair
        reads ``validity_checked_to`` 0 without any check, so it needs one
        even at horizon 0; every validation records its failures."""
        return ("validation_failures" in self.details
                and self.validity_checked_to >= horizon)


@dataclass
class FiniteTimeBound:
    """One evaluation of the two-regime bound, with its summands."""

    n_or_t: float
    threshold: float                  # n_hat or t_hat
    regime: str                       # "pre_threshold" | "post_threshold"
    bound_value: float
    initial_term: float
    perturbation_term: float


@dataclass
class BoundReport:
    """One bound-vs-exact record; rows of the CSV trajectory/sweep output."""

    n_or_t: float
    exact: float
    bound: float
    slack: float
    regime: str
    K: float = math.nan
    rate: float = math.nan
    recipe: str = ""
    kappa_variant: str = ""
    instance: Optional[int] = None
    error: str = ""


def user_pair(K: float, rate: float, kind: str = "discrete") -> ConvergencePair:
    """Wrap externally certified constants (e.g. from a log-Sobolev bound)."""
    return ConvergencePair(K=K, rate=rate, kind=kind, recipe="user_supplied")


# ---------------------------------------------------------------------------
# thresholds and bound formulas


def n_hat(K: float, mu: float) -> int:
    """ceil(log(1/K) / log(mu)), clamped to 0 (the pre-threshold branch is
    vacuous for K <= 1).  A 1e-12 backoff absorbs roundoff at exact-integer
    crossovers such as K = 1/mu^k."""
    if K <= 1.0 or mu <= 0.0:
        return 0
    return max(0, math.ceil(math.log(1.0 / K) / math.log(mu) - 1e-12))


def t_hat(K: float, nu: float) -> float:
    """log(K)/nu, clamped to 0 for K <= 1."""
    if K <= 1.0:
        return 0.0
    return math.log(K) / nu


def discrete_bound(pair: ConvergencePair, n: int, d0: float, dT: float) -> FiniteTimeBound:
    """Evaluate the discrete two-regime bound at step n.

    ``d0`` is ||rho_0 - sigma_0||_1 and ``dT`` is ||E - T||_{1->1}.
    """
    if pair.kind != "discrete":
        raise DomainError("discrete_bound requires a discrete pair")
    if n < 0 or d0 < 0 or dT < 0:
        raise DomainError("n, d0 and dT must be nonnegative")
    K, mu = pair.K, pair.rate
    nh = n_hat(K, mu)
    if n <= nh:
        initial, pert, regime = d0, n * dT, "pre_threshold"
    else:
        mu_n = mu ** n
        initial = K * mu_n * d0
        pert = (nh + K * (mu ** nh - mu_n) / (1.0 - mu)) * dT
        regime = "post_threshold"
    return FiniteTimeBound(n_or_t=float(n), threshold=float(nh), regime=regime,
                           bound_value=initial + pert, initial_term=initial,
                           perturbation_term=pert)


def asymptotic_discrete(pair: ConvergencePair, dT: float) -> float:
    """(n_hat + 1/(1-mu)) ||E - T||_{1->1}, the asymptotic displacement bound."""
    if pair.kind != "discrete":
        raise DomainError("asymptotic_discrete requires a discrete pair")
    if dT < 0:
        raise DomainError("dT must be nonnegative")
    return (n_hat(pair.K, pair.rate) + 1.0 / (1.0 - pair.rate)) * dT


def continuous_bound(pair: ConvergencePair, t: float, d0: float, dL: float) -> FiniteTimeBound:
    """Evaluate the continuous two-regime bound at time t.

    ``dL`` is the 1->1 norm of the generator difference.
    """
    if pair.kind != "continuous":
        raise DomainError("continuous_bound requires a continuous pair")
    if t < 0 or d0 < 0 or dL < 0:
        raise DomainError("t, d0 and dL must be nonnegative")
    if pair.K <= 0:
        raise DomainError("continuous bound requires K > 0")
    K, nu = pair.K, pair.rate
    th = t_hat(K, nu)
    if t <= th:
        initial, pert, regime = d0, t * dL, "pre_threshold"
    else:
        decay = K * math.exp(-nu * t)
        initial = decay * d0
        # the integral of min(1, K e^{-nu s}) over [0, t], >= 0 for every K
        pert = (math.log(max(K, 1.0)) + min(K, 1.0) - decay) / nu * dL
        regime = "post_threshold"
    return FiniteTimeBound(n_or_t=t, threshold=th, regime=regime,
                           bound_value=initial + pert, initial_term=initial,
                           perturbation_term=pert)


def asymptotic_continuous(pair: ConvergencePair, dL: float) -> float:
    """(log(max(K, 1)) + min(K, 1))/nu times the generator-difference norm,
    the t -> infinity limit of :func:`continuous_bound`."""
    if pair.kind != "continuous":
        raise DomainError("asymptotic_continuous requires a continuous pair")
    if pair.K <= 0:
        raise DomainError("requires K > 0")
    return (math.log(max(pair.K, 1.0)) + min(pair.K, 1.0)) / pair.rate * dL


# ---------------------------------------------------------------------------
# pair recipes


def _stationary_full_rank(t: SuperOperator):
    states, unique = stationary_states(t)
    if not unique:
        raise HypothesisError("recipe requires a unique stationary state")
    sigma = states[0].matrix
    w, v = np.linalg.eigh(sigma)
    lam_min = float(w.min())
    if lam_min <= 1e-12:
        raise DomainError(
            f"stationary state is rank deficient (lambda_min = {lam_min:.3g})")
    return sigma, w, v, lam_min


def _conjugated_matrix(m: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Superoperator of X -> sigma^{-1/4} M(sigma^{1/4} X sigma^{1/4}) sigma^{-1/4}."""
    s_pos = (v * w ** 0.25) @ dagger(v)
    s_neg = (v * w ** -0.25) @ dagger(v)
    return np.kron(s_neg.T, s_neg) @ m @ np.kron(s_pos.T, s_pos)


def _detailed_balance_residual(omega: np.ndarray, what: str) -> float:
    """||Omega - Omega^dag||_2 of a conjugated map or generator; raises
    unless it is at most 1e-8 max(1, ||Omega||_2)."""
    herm_res = float(spectral_norm(omega - dagger(omega)))
    if herm_res > 1e-8 * max(1.0, float(spectral_norm(omega))):
        raise DomainError(
            f"detailed balance violated: conjugated {what} has Hermiticity "
            f"residual {herm_res:.3g}")
    return herm_res


def pair_chi2(t: SuperOperator, n_check: int = DEFAULT_VALIDATION_STEPS,
              seed: int = 0) -> ConvergencePair:
    """chi^2 pair: mu = second largest singular value of the conjugated map
    Omega(X) = sigma^{-1/4} T(sigma^{1/4} X sigma^{1/4}) sigma^{-1/4} and
    K = (lambda_min(sigma)^{-1} - 1)^{1/2}.

    Requires a unique, full-rank stationary state.  The returned pair is
    validated empirically up to ``n_check``.
    """
    sigma, w, v, lam_min = _stationary_full_rank(t)
    omega = _conjugated_matrix(t.matrix, w, v)
    sv = np.linalg.svd(omega, compute_uv=False)
    mu = float(sv[1])
    if mu >= 1.0 - 1e-12:
        raise DomainError(f"chi2 recipe yields mu = {mu:.12g} >= 1 (not contractive)")
    pair = ConvergencePair(K=math.sqrt(1.0 / lam_min - 1.0), rate=mu,
                           kind="discrete", recipe="chi2",
                           details={"lambda_min": lam_min,
                                    "singular_values": [float(s) for s in sv[:4]]})
    return validate_pair_on_channel(pair, t, n_max=n_check, seed=seed)


def pair_detailed_balance(t: SuperOperator, n_check: int = DEFAULT_VALIDATION_STEPS,
                          seed: int = 0) -> ConvergencePair:
    """Detailed-balance pair: mu = subdominant eigenvalue modulus and
    K = sqrt(2d) lambda_min(sigma)^{-1/2}.

    Requires the conjugated map Omega to be Hermitian as a superoperator
    matrix (detailed balance w.r.t. the stationary state) to 1e-8.
    """
    sigma, w, v, lam_min = _stationary_full_rank(t)
    omega = _conjugated_matrix(t.matrix, w, v)
    herm_res = _detailed_balance_residual(omega, "map")
    mu = fixed_point_analysis(t).spectral.subdominant_modulus
    if not mu < 1.0 - 1e-12:
        raise DomainError(f"subdominant modulus {mu:.12g} is not below 1")
    pair = ConvergencePair(K=math.sqrt(2.0 * t.dim / lam_min), rate=mu,
                           kind="discrete", recipe="detailed_balance",
                           details={"lambda_min": lam_min,
                                    "hermiticity_residual": herm_res})
    return validate_pair_on_channel(pair, t, n_max=n_check, seed=seed)


def _blaschke_sup_on_circle(roots: np.ndarray, exponents: Sequence[int],
                            mu: float, grid: int = 4096) -> float:
    """sup over |z| = mu of prod |(1 - conj(l_i) z)/(z - l_i)|^{e_i}."""

    def values(phis):
        z = mu * np.exp(1j * phis)
        out = np.ones_like(phis, dtype=float)
        for lam, e in zip(roots, exponents):
            out *= (np.abs(1.0 - np.conj(lam) * z) / np.abs(z - lam)) ** e
        return out

    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    vals = values(phis)
    best = int(np.argmax(vals))
    phi, val, half = phis[best], vals[best], 2.0 * np.pi / grid
    # zoom in on the coarse argmax: each round spans one spacing of the
    # previous grid on either side, in 64 steps
    for _ in range(4):
        local = np.linspace(phi - half, phi + half, 65)
        lv = values(local)
        k = int(np.argmax(lv))
        phi, val = local[k], max(val, lv[k])
        half /= 32.0
    return float(val)


def pair_spectral_eq10(t: SuperOperator, mu: float,
                       n_check: int = DEFAULT_VALIDATION_STEPS,
                       seed: int = 0) -> ConvergencePair:
    """Purely spectral pair from the minimal polynomial of Delta = T - T^inf.

    For any mu with max|spec(Delta)| < mu < 1 the decay prefactor is

        4 e sqrt(|m|) / (1 - mu)^{3/2} * sup_{|z|=mu} prod_i |(1 - conj(l_i) z)/(z - l_i)|

    (circle-supremum form) or with the per-root relaxation
    prod (1 - mu |l_i|)/(mu - |l_i|); the trailing mu^{n+1} is absorbed as
    K <- prefactor * mu so the pair certifies K mu^n.  The smaller (circle)
    value is used; both are recorded.  A root whose largest Jordan block
    has size b enters both products b times.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu}")
    delta = delta_map(t)
    minpoly = minimal_polynomial(delta)
    roots = minpoly.distinct_roots
    radius = float(np.abs(roots).max())
    if radius >= mu - 1e-12:
        raise DomainError(
            f"mu = {mu:g} does not dominate the spectrum of Delta "
            f"(spectral radius {radius:.12g})")

    exps = list(minpoly.block_sizes)
    m_count = minpoly.degree
    prefactor = 4.0 * math.e * math.sqrt(m_count) / (1.0 - mu) ** 1.5
    sup_circle = _blaschke_sup_on_circle(roots, exps, mu)
    prod_relax = 1.0
    for lam, e in zip(roots, exps):
        prod_relax *= ((1.0 - mu * abs(lam)) / (mu - abs(lam))) ** e
    k_circle = prefactor * sup_circle * mu
    k_product = prefactor * prod_relax * mu

    pair = ConvergencePair(K=min(k_circle, k_product), rate=mu,
                           kind="discrete", recipe="spectral_eq10",
                           details={
                               "k_circle": k_circle, "k_product": k_product,
                               "circle_supremum": sup_circle,
                               "product_relaxation": prod_relax,
                               "linear_factor_count": m_count,
                               "multiplicity_convention": "block",
                               "roots": [[float(r.real), float(r.imag)]
                                         for r in roots],
                               "block_sizes": list(minpoly.block_sizes)})
    return validate_pair_on_channel(pair, t, n_max=n_check, seed=seed)


# --- continuous-time recipes ------------------------------------------------


def _generator_conjugated(gen: GeneratorMap):
    """The conjugated generator, the gap nu of its symmetrized restriction
    to the orthocomplement of sqrt(sigma), and lambda_min(sigma)."""
    sigma, w, v, lam_min = _stationary_full_rank(gen.unit_time_map)
    g_omega = _conjugated_matrix(gen.matrix, w, v)
    sqrt_sigma = (v * np.sqrt(w)) @ dagger(v)
    fixed_vec = vec(sqrt_sigma)
    fixed_vec = fixed_vec / np.linalg.norm(fixed_vec)
    q, _ = np.linalg.qr(fixed_vec[:, None], mode="complete")
    basis_perp = q[:, 1:]
    restricted = dagger(basis_perp) @ g_omega @ basis_perp
    nu = -float(np.linalg.eigvalsh((restricted + dagger(restricted)) / 2).max())
    return g_omega, nu, lam_min


def pair_chi2_generator(gen: GeneratorMap, t_max: float = 10.0,
                        samples: int = DEFAULT_VALIDATION_STEPS,
                        seed: int = 0) -> ConvergencePair:
    """Continuous chi^2 pair for a semigroup generator.

    Same K as the discrete recipe; the rate nu is the gap of the
    symmetrized conjugated generator restricted to the orthocomplement of
    the fixed direction, which bounds ||Omega_t|perp||_{2->2} <= e^{-nu t}
    for all real t >= 0.  Validated empirically on a uniform time grid.
    """
    _, nu, lam_min = _generator_conjugated(gen)
    if nu <= 0.0:
        raise DomainError(
            f"conjugated generator is not strictly dissipative (gap {nu:.3g})")
    pair = ConvergencePair(K=math.sqrt(1.0 / lam_min - 1.0), rate=nu,
                           kind="continuous", recipe="chi2",
                           details={"lambda_min": lam_min})
    return validate_pair_on_generator(pair, gen, t_max=t_max, samples=samples,
                                      seed=seed)


def pair_detailed_balance_generator(gen: GeneratorMap, t_max: float = 10.0,
                                    samples: int = DEFAULT_VALIDATION_STEPS,
                                    seed: int = 0) -> ConvergencePair:
    """Continuous detailed-balance pair: requires a Hermitian conjugated
    generator; nu is its spectral gap and K = sqrt(2d) lambda_min^{-1/2}."""
    g_omega, nu, lam_min = _generator_conjugated(gen)
    herm_res = _detailed_balance_residual(g_omega, "generator")
    if nu <= 0.0:
        raise DomainError(f"generator has no spectral gap (found {nu:.3g})")
    pair = ConvergencePair(K=math.sqrt(2.0 * gen.dim / lam_min), rate=nu,
                           kind="continuous", recipe="detailed_balance",
                           details={"lambda_min": lam_min,
                                    "hermiticity_residual": herm_res})
    return validate_pair_on_generator(pair, gen, t_max=t_max, samples=samples,
                                      seed=seed)


# ---------------------------------------------------------------------------
# empirical validation


def _require_horizon(t_max: float):
    if not 0.0 <= t_max < math.inf:
        raise DomainError(f"t_max must be finite and nonnegative, got {t_max}")


def _probe_bounds(count: int, advance, p_inf: np.ndarray,
                  probes: np.ndarray) -> np.ndarray:
    """Probe lower bounds of ||E_k - P_inf|| for k < ``count``, where
    ``advance`` steps the evolution E_k from E_0 = I to the next grid point.

    The evolution is stepped one grid point at a time; the probe bounds of
    each run of VALIDATION_CHUNK consecutive points come from one stacked
    application and one trace-norm batch, the same arithmetic per point as
    a point-by-point evaluation.
    """
    shape = p_inf.shape
    current = np.eye(shape[0], dtype=complex)
    bounds = []
    for start in range(0, count, VALIDATION_CHUNK):
        chunk = np.empty((min(VALIDATION_CHUNK, count - start),) + shape,
                         dtype=complex)
        for k in range(len(chunk)):
            if start + k:
                current = advance(current)
            chunk[k] = current - p_inf
        bounds.extend(norm_lower_bound_probes(chunk, probes).tolist())
    return np.array(bounds)


@functools.lru_cache(maxsize=8)
def _channel_probe_bounds(t: SuperOperator, n_max: int, seed: int) -> np.ndarray:
    """The probe bounds of ||T^n - T^inf|| for n = 0..n_max.

    Memoised per (map, n_max, seed), with maps keyed by identity as in
    :func:`spectral.fixed_point_analysis`, so the pairs validated on one
    channel share one evaluation; the returned array is shared, hence
    read-only.
    """
    bounds = _probe_bounds(n_max + 1, lambda power: power @ t.matrix,
                           fixed_point_analysis(t).projector.matrix,
                           probe_inputs(t.dim, seed=seed))
    bounds.flags.writeable = False
    return bounds


def _validate_on_grid(pair: ConvergencePair, key: str, grid, estimates,
                      decay, n_probes: int) -> ConvergencePair:
    """The check loop of both validators: the probe bound ``estimates[i]``
    at grid point x = ``grid[i]`` against K decay(x)."""
    checked_to = prev = -1
    failures = []
    for x, estimate in zip(grid, estimates.tolist()):
        certified = pair.K * decay(x)
        if estimate <= certified + VALIDATION_TOL:
            if checked_to == prev:
                checked_to = x
        else:
            failures.append({key: x, "estimate": estimate, "certified": certified})
        prev = x
    pair.validity_checked_to = float(max(checked_to, 0))
    pair.valid = not failures
    pair.details["validation_failures"] = failures
    pair.details["validated_with_probes"] = n_probes
    return pair


def validate_pair_on_channel(pair: ConvergencePair, t: SuperOperator,
                             n_max: int, seed: int = 0) -> ConvergencePair:
    """Check ||T^n - T^inf|| >= estimator against K mu^n for n = 0..n_max.

    The estimator is the probe lower bound over ``probe_inputs(d,
    seed=seed)``, evaluated in runs of VALIDATION_CHUNK steps (one
    trace-norm batch per run) once per (map, n_max, seed) and shared by
    every pair validated there.  Updates ``validity_checked_to`` to the
    last consecutive step that passed and poisons the pair (valid=False)
    on any failure.
    """
    if pair.kind != "discrete":
        raise DomainError("channel validation requires a discrete pair")
    return _validate_on_grid(
        pair, "n", range(n_max + 1), _channel_probe_bounds(t, n_max, seed),
        lambda n: pair.rate ** n, len(probe_inputs(t.dim, seed=seed)))


def validate_pair_on_generator(pair: ConvergencePair, gen: GeneratorMap,
                               t_max: float, samples: int,
                               seed: int = 0) -> ConvergencePair:
    """Continuous analogue of :func:`validate_pair_on_channel` on a t grid."""
    if pair.kind != "continuous":
        raise DomainError("generator validation requires a continuous pair")
    _require_horizon(t_max)
    p_inf = fixed_point_analysis(gen.unit_time_map).projector.matrix
    probes = probe_inputs(gen.dim, seed=seed)
    times = np.linspace(0.0, t_max, samples)
    step = matrix_exp(gen.matrix, times[1] - times[0]) if samples > 1 else None
    return _validate_on_grid(
        pair, "t", times.tolist(),
        _probe_bounds(samples, lambda current: step @ current, p_inf, probes),
        lambda tt: math.exp(-pair.rate * tt), len(probes))


# ---------------------------------------------------------------------------
# trajectory checks


def _require_usable(pair: ConvergencePair):
    if not pair.valid:
        raise DomainError(
            "convergence pair failed empirical validation and cannot be used "
            f"to assert bounds (failures: {pair.details.get('validation_failures')})")


def _simulate(step_t: np.ndarray, step_e: np.ndarray, rho0: DensityMatrix,
              sigma0: DensityMatrix, count: int):
    """sigma_i and the exact ||rho_i - sigma_i||_1 for i < count, where
    rho_{i+1} = step_t rho_i and sigma_{i+1} = step_e sigma_i."""
    d = rho0.dim
    rho_v, sigma_v = vec(rho0.matrix), vec(sigma0.matrix)
    rho_vs = np.empty((count, d * d), dtype=complex)
    sigma_vs = np.empty_like(rho_vs)
    for i in range(count):
        if i:
            rho_v = step_t @ rho_v
            sigma_v = step_e @ sigma_v
        rho_vs[i], sigma_vs[i] = rho_v, sigma_v
    sigma_mats = sigma_vs.reshape(count, d, d).transpose(0, 2, 1)
    diff_mats = (rho_vs - sigma_vs).reshape(count, d, d).transpose(0, 2, 1)
    return sigma_mats, trace_norm_batch(diff_mats)


def _perturbation_norm(m_t: np.ndarray, m_e: np.ndarray, inputs: np.ndarray,
                       restarts: int, seed: int) -> float:
    """The estimate of ||E - T||_{1->1} from :func:`norm_1to1`, raised to
    its value on each of ``inputs`` (unit-trace-norm states, so each is an
    admissible input)."""
    dop = SuperOperator(inputs.shape[-1], m_e - m_t)
    value = norm_1to1(dop, restarts=restarts, seed=seed).value
    if len(inputs):
        value = max(value, float(trace_norm_batch(dop.apply_batch(inputs)).max()))
    return value


def _bound_rows(pair: ConvergencePair, grid, bound, exact: np.ndarray,
                d0: float, dT: float, tol: float, strict: bool,
                unit: str) -> list:
    """One BoundReport per grid point; raise on a violation when strict."""
    reports = []
    for x, ex in zip(grid, exact):
        fb = bound(pair, x, d0, dT)
        reports.append(BoundReport(
            n_or_t=float(x), exact=float(ex), bound=fb.bound_value,
            slack=fb.bound_value - float(ex), regime=fb.regime,
            K=pair.K, rate=pair.rate, recipe=pair.recipe))
    bad = [r for r in reports if r.slack < -tol]
    if strict and bad:
        raise BoundViolationError(
            f"{len(bad)} of {len(reports)} {unit} violate the bound "
            f"(worst slack {min(r.slack for r in bad):.3g})", reports=reports)
    return reports


def discrete_trajectory_check(t: SuperOperator, e: SuperOperator,
                              rho0: DensityMatrix, sigma0: DensityMatrix,
                              n_steps: int, pair: ConvergencePair,
                              restarts: int = 8, seed: int = 0,
                              tol: float = 1e-6, strict: bool = True) -> list:
    """Exact simulated ||rho_n - sigma_n||_1 against the per-step bound.

    The perturbation norm ||E - T|| is estimated by the multistart
    optimizer and additionally evaluated on every simulated sigma_i (each
    is an admissible unit-trace-norm input), which makes the bound dominate
    the trajectory whenever the pair's certificate holds.  With
    ``strict=True`` a violation beyond ``tol`` raises
    :class:`BoundViolationError` carrying the records.
    """
    if t.dim != e.dim:
        raise DomainError("maps must act on the same dimension")
    analysis = fixed_point_analysis(t)
    if analysis.multiplicity != 1:
        raise HypothesisError(
            "discrete trajectory bound requires a unique stationary state "
            f"(eigenvalue-1 multiplicity {analysis.multiplicity})")
    if pair.kind != "discrete":
        raise DomainError("discrete trajectory check requires a discrete pair")
    if not pair.validated_to(n_steps):
        validate_pair_on_channel(pair, t, n_max=n_steps, seed=seed)
    _require_usable(pair)

    sigma_mats, exact = _simulate(t.matrix, e.matrix, rho0, sigma0, n_steps + 1)
    d0 = trace_norm(rho0.matrix - sigma0.matrix)
    dT = _perturbation_norm(t.matrix, e.matrix, sigma_mats[:-1], restarts, seed)
    return _bound_rows(pair, range(n_steps + 1), discrete_bound, exact, d0, dT,
                       tol, strict, "steps")


def continuous_trajectory_check(gen_t: GeneratorMap, gen_e: GeneratorMap,
                                rho0: DensityMatrix, sigma0: DensityMatrix,
                                t_max: float, steps: int, pair: ConvergencePair,
                                restarts: int = 8, seed: int = 0,
                                tol: float = 1e-6, strict: bool = True) -> list:
    """Continuous counterpart of :func:`discrete_trajectory_check`.

    Both semigroups are propagated at ``steps`` uniform times in
    [0, t_max] (one matrix exponential per grid spacing, then compounded).
    """
    if gen_t.dim != gen_e.dim:
        raise DomainError("generators must act on the same dimension")
    if steps < 2:
        raise DomainError("need at least 2 time samples")
    _require_horizon(t_max)
    if pair.kind != "continuous":
        raise DomainError("continuous trajectory check requires a continuous pair")
    if not pair.validated_to(t_max):
        validate_pair_on_generator(pair, gen_t, t_max=t_max, samples=steps,
                                   seed=seed)
    _require_usable(pair)

    if fixed_point_analysis(gen_t.unit_time_map).multiplicity != 1:
        raise HypothesisError(
            "continuous trajectory bound requires a unique stationary state")

    times = np.linspace(0.0, t_max, steps)
    dt = times[1] - times[0]
    sigma_mats, exact = _simulate(matrix_exp(gen_t.matrix, dt),
                                  matrix_exp(gen_e.matrix, dt), rho0, sigma0, steps)
    d0 = trace_norm(rho0.matrix - sigma0.matrix)
    dL = _perturbation_norm(gen_t.matrix, gen_e.matrix, sigma_mats, restarts, seed)
    return _bound_rows(pair, times.tolist(), continuous_bound, exact, d0, dL,
                       tol, strict, "times")
