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

from .channels import (DensityMatrix, GeneratorMap, SuperOperator, basis_state,
                       generator_exponential)
from .contraction import norm_1to1, norm_lower_bound_probes, probe_inputs
from .errors import (BoundViolationError, DomainError, HypothesisError,
                     ValidationError)
from .linalg import (apply_batch, dagger, sandwich_matrix, spectral_norm,
                     trace_norm, trace_norm_batch, vec)
from .spectral import fixed_point_analysis, minimal_polynomial

RECIPES = ("user_supplied", "chi2", "detailed_balance", "spectral_eq10")

# Tolerance for the empirical certificate check (estimates are exact
# evaluations, so this only absorbs roundoff; the depolarizing family
# saturates the certificate exactly).
VALIDATION_TOL = 1e-8
# Slack below which a strict trajectory check raises.
STRICT_TOL = 1e-6

DEFAULT_VALIDATION_STEPS = 50

# Consecutive powers built as one stack (the first by doubling, each later
# one by one stacked product) and, in validation, sharing one probe batch.
# One run's stacked probe application holds 16 x 132 probes x d^2 complex
# values, 135,168 bytes at d = 2 (540,672 at 64): glibc then keeps the heap
# pages it lands in instead of returning them and faulting them back in on
# every run.  In the finite_time benchmark loop (glibc 2.36, x86-64) a run
# of 64 took 400-575 minor page faults per op, 32 still 620-640, 16 under 2.
VALIDATION_CHUNK = 16


@dataclass
class ConvergencePair:
    """Constants certifying exponential convergence, with their provenance.

    ``validity_checked_to`` and ``valid`` record the pair's last check
    against the norm estimator: the largest n (or t) up to which the
    certified inequality held, and whether it held on the whole grid.  A
    trajectory check validates the pair again on its own grid before use.
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
        if self.kind == "continuous" and not 0.0 < self.rate < math.inf:
            raise DomainError(
                f"continuous rate nu must be positive and finite, got {self.rate}")

    def to_dict(self) -> dict:
        return {"K": self.K, "rate": self.rate, "kind": self.kind,
                "recipe": self.recipe,
                "validity_checked_to": self.validity_checked_to,
                "valid": self.valid,
                "details": {k: v for k, v in self.details.items()
                            if isinstance(v, (int, float, str, bool, list))}}


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


def _require_nonnegative(names: str, *values):
    """Refuse a negative or NaN value: ``names`` must be nonnegative."""
    if not all(x >= 0 for x in values):
        raise DomainError(f"{names} must be nonnegative")


def _require_kind(pair: ConvergencePair, kind: str, what: str):
    """Refuse a pair of the other clock: ``what`` needs a ``kind`` pair."""
    if pair.kind != kind:
        raise DomainError(f"{what} requires a {kind} pair")


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


def _by_regime(pre, x, pre_term, post_term) -> np.ndarray:
    """pre_term(x) where ``pre`` holds and post_term(x) elsewhere, each
    evaluated only at its own points: the formula of the other regime may
    overflow there, for a huge K or a tiny rate."""
    out = np.empty(x.shape)
    out[pre] = pre_term(x[pre])
    out[~pre] = post_term(x[~pre])
    return out


def _discrete_terms(K: float, mu: float, n, d0: float, dT: float):
    """n_hat, the pre-threshold mask and the initial and perturbation terms
    of the discrete bound at the steps ``n`` (a scalar or an array), each
    regime evaluated only where it applies (:func:`_by_regime`)."""
    nh = n_hat(K, mu)
    n = np.asarray(n, dtype=float)
    pre = n <= nh
    initial = _by_regime(pre, n, lambda n: d0, lambda n: K * mu ** n * d0)
    pert = _by_regime(
        pre, n, lambda n: n * dT,
        lambda n: (nh + K * (mu ** nh - mu ** n) / (1.0 - mu)) * dT)
    return nh, pre, initial, pert


def _finite_time_bound(x, threshold, pre, initial, pert) -> FiniteTimeBound:
    """The bound at one point x from its ``_*_terms``."""
    initial, pert = float(initial), float(pert)
    return FiniteTimeBound(n_or_t=float(x), threshold=float(threshold),
                           regime="pre_threshold" if pre else "post_threshold",
                           bound_value=initial + pert, initial_term=initial,
                           perturbation_term=pert)


def discrete_bound(pair: ConvergencePair, n: int, d0: float, dT: float) -> FiniteTimeBound:
    """Evaluate the discrete two-regime bound at step n.

    ``d0`` is ||rho_0 - sigma_0||_1 and ``dT`` is ||E - T||_{1->1}.
    """
    _require_kind(pair, "discrete", "discrete_bound")
    _require_nonnegative("n, d0 and dT", n, d0, dT)
    return _finite_time_bound(n, *_discrete_terms(pair.K, pair.rate, n, d0, dT))


def asymptotic_discrete(pair: ConvergencePair, dT: float) -> float:
    """(n_hat + 1/(1-mu)) ||E - T||_{1->1}, the paper-style asymptotic bound.

    It dominates the n -> infinity limit (n_hat + K mu^n_hat/(1-mu)) ||E - T||
    of :func:`discrete_bound` by (1 - K mu^n_hat)/(1-mu) ||E - T||, so it
    equals the limit only when K mu^n_hat = 1; the gap is below ||E - T||
    for K > 1 and can exceed it for K < 1."""
    _require_kind(pair, "discrete", "asymptotic_discrete")
    _require_nonnegative("dT", dT)
    return (n_hat(pair.K, pair.rate) + 1.0 / (1.0 - pair.rate)) * dT


def _decay(K: float, nu: float, t) -> np.ndarray:
    """K e^{-nu t} at the times ``t``.  e^{-nu t} is 0 in floating point
    once nu t exceeds 800, so t is capped at 800/nu there: nu t then never
    overflows, however large the rate."""
    return K * np.exp(-nu * np.minimum(t, 800.0 / nu))


def _continuous_terms(K: float, nu: float, t, d0: float, dL: float):
    """t_hat, the pre-threshold mask and the initial and perturbation terms
    of the continuous bound at the times ``t`` (a scalar or an array),
    each regime evaluated only where it applies (:func:`_by_regime`)."""
    if K <= 0:
        raise DomainError("continuous bound requires K > 0")
    th = t_hat(K, nu)
    t = np.asarray(t, dtype=float)
    pre = t <= th
    initial = _by_regime(pre, t, lambda t: d0, lambda t: _decay(K, nu, t) * d0)
    # the integral of min(1, K e^{-nu s}) over [0, t], >= 0 for every K
    pert = _by_regime(
        pre, t, lambda t: t * dL,
        lambda t: (math.log(max(K, 1.0)) + min(K, 1.0) - _decay(K, nu, t))
        / nu * dL)
    return th, pre, initial, pert


def continuous_bound(pair: ConvergencePair, t: float, d0: float, dL: float) -> FiniteTimeBound:
    """Evaluate the continuous two-regime bound at time t.

    ``dL`` is the 1->1 norm of the generator difference.
    """
    _require_kind(pair, "continuous", "continuous_bound")
    _require_nonnegative("t, d0 and dL", t, d0, dL)
    return _finite_time_bound(t, *_continuous_terms(pair.K, pair.rate, t, d0, dL))


def asymptotic_continuous(pair: ConvergencePair, dL: float) -> float:
    """(log(max(K, 1)) + min(K, 1))/nu times the generator-difference norm,
    the t -> infinity limit of :func:`continuous_bound`."""
    _require_kind(pair, "continuous", "asymptotic_continuous")
    _require_nonnegative("dL", dL)
    if pair.K <= 0:
        raise DomainError("requires K > 0")
    return (math.log(max(pair.K, 1.0)) + min(pair.K, 1.0)) / pair.rate * dL


# ---------------------------------------------------------------------------
# pair recipes


def _stationary_full_rank(t: SuperOperator):
    analysis = fixed_point_analysis(t)
    if analysis.multiplicity != 1:
        raise HypothesisError("recipe requires a unique stationary state")
    # with a unique fixed point every state reaches sigma; |0><0| is one
    w, v = np.linalg.eigh(analysis.limit_state(basis_state(t.dim, 0).matrix).matrix)
    lam_min = float(w.min())
    if lam_min <= 1e-12:
        raise DomainError(
            f"stationary state is rank deficient (lambda_min = {lam_min:.3g})")
    return w, v, lam_min


def _conjugated_matrix(m: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Superoperator of X -> sigma^{-1/4} M(sigma^{1/4} X sigma^{1/4}) sigma^{-1/4}."""
    s = np.stack([(v * w ** -0.25) @ dagger(v), (v * w ** 0.25) @ dagger(v)])
    outer, inner = sandwich_matrix(s, s)
    return outer @ m @ inner


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
    w, v, lam_min = _stationary_full_rank(t)
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
    w, v, lam_min = _stationary_full_rank(t)
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
                            mu: float) -> float:
    """sup over |z| = mu of prod |(1 - conj(l_i) z)/(z - l_i)|^{e_i}."""

    def values(phis):
        z = mu * np.exp(1j * phis)
        out = np.ones_like(phis, dtype=float)
        for lam, e in zip(roots, exponents):
            out *= (np.abs(1.0 - np.conj(lam) * z) / np.abs(z - lam)) ** e
        return out

    phis = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = values(phis)
    best = int(np.argmax(vals))
    phi, val, half = phis[best], vals[best], 2.0 * np.pi / 4096
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
    K <- prefactor * mu so the pair certifies K mu^n.  K is the minimum of
    the two, both recorded.  The relaxation multiplies the peaks of the
    factors on |z| = mu and the grid under-estimates the supremum, so the
    circle value never exceeds it beyond roundoff; with all roots on one ray
    from 0 the two tie, and the minimum takes whichever rounds lower.  A
    root whose largest Jordan block has size b enters both products b times.
    """
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu}")
    minpoly = minimal_polynomial(SuperOperator(
        t.dim, t.matrix - fixed_point_analysis(t).projector.matrix))
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
    w, v, lam_min = _stationary_full_rank(gen.unit_time_map)
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


def _require_grid(t_max: float, steps: int):
    """The continuous trajectory grid: at least 2 samples of [0, t_max]."""
    if steps < 2:
        raise DomainError("need at least 2 time samples")
    _require_horizon(t_max)


def _require_steps(n: int, name: str):
    if n < 0:
        raise DomainError(f"{name} must be nonnegative, got {n}")


def _powers(m: np.ndarray, count: int):
    """M^k for k < ``count`` in stacks of VALIDATION_CHUNK consecutive powers:
    the first by doubling (base[h:2h] = base[:h] M^h, 4 stacked products for
    16 powers), each later one as base M^start, one stacked product per
    chunk.  Equal to a step-by-step evaluation up to roundoff."""
    n = min(VALIDATION_CHUNK, count)
    if n < 1:
        return
    base = np.empty((n,) + m.shape, dtype=complex)
    base[0] = np.eye(len(m))
    power, h = m, 1                       # power = M^h
    while h < n:
        base[h:2 * h] = base[:min(h, n - h)] @ power
        power, h = power @ power, 2 * h
    yield base
    shift = current = base[-1] @ m        # M^n
    for start in range(n, count, n):
        yield base[:count - start] @ current
        current = current @ shift


@functools.lru_cache(maxsize=8)
def _grid_step(gen: GeneratorMap, t_max: float, samples: int) -> SuperOperator:
    """e^{L dt} at the spacing dt of ``samples`` uniform times in [0, t_max],
    shared by a validation on that grid and the trajectory simulated on it."""
    return generator_exponential(gen, t_max / max(samples - 1, 1))


@functools.lru_cache(maxsize=8)
def _probe_bounds(step: SuperOperator, limit: SuperOperator, count: int,
                  seed: int) -> np.ndarray:
    """Probe lower bounds of ||S^k - P_inf|| for k < ``count``, S = ``step``,
    P_inf the projector of ``limit`` (a channel is its own step and limit, a
    generator's are :func:`_grid_step` and e^{L}) and the probes
    ``probe_inputs(d, seed=seed)``, one trace-norm batch per stack of
    :func:`_powers`.  Memoised with maps keyed by identity, so validations
    on one grid, and a trajectory check on it, share one read-only result.
    """
    p_inf = fixed_point_analysis(limit).projector.matrix
    probes = probe_inputs(limit.dim, seed=seed)
    bounds = np.concatenate([norm_lower_bound_probes(block - p_inf, probes)
                             for block in _powers(step.matrix, count)])
    bounds.flags.writeable = False
    return bounds


def _validate_on_grid(pair: ConvergencePair, key: str, grid, estimates,
                      certified, n_probes: int) -> ConvergencePair:
    """The verdict of both validators, decided once over the arrays: the
    probe bound ``estimates[i]`` at ``grid[i]`` against ``certified[i]``,
    the pair's K decay there (a NaN estimate fails).
    ``validity_checked_to`` is the last point of the passing prefix, 0 when
    the first point fails."""
    ok = estimates <= certified + VALIDATION_TOL
    pair.validity_checked_to = float(grid[np.logical_and.accumulate(ok)].max(initial=0))
    pair.valid = bool(ok.all())
    pair.details["validation_failures"] = [
        {key: x, "estimate": e, "certified": c} for x, e, c in
        zip(grid[~ok].tolist(), estimates[~ok].tolist(), certified[~ok].tolist())]
    pair.details["validated_with_probes"] = n_probes
    return pair


def validate_pair_on_channel(pair: ConvergencePair, t: SuperOperator,
                             n_max: int, seed: int = 0) -> ConvergencePair:
    """Check ||T^n - T^inf|| >= estimator against K mu^n for n = 0..n_max.

    The estimator is the probe lower bound over ``probe_inputs(d,
    seed=seed)``, evaluated in runs of VALIDATION_CHUNK steps (one
    trace-norm batch per run) once per (map, n_max, seed) and shared by
    every validation there.  Updates ``validity_checked_to`` to the
    last consecutive step that passed and poisons the pair (valid=False)
    on any failure.
    """
    _require_kind(pair, "discrete", "channel validation")
    _require_steps(n_max, "n_max")
    steps = np.arange(n_max + 1)
    return _validate_on_grid(
        pair, "n", steps, _probe_bounds(t, t, n_max + 1, seed),
        pair.K * pair.rate ** steps, len(probe_inputs(t.dim, seed=seed)))


def validate_pair_on_generator(pair: ConvergencePair, gen: GeneratorMap,
                               t_max: float, samples: int,
                               seed: int = 0) -> ConvergencePair:
    """Continuous analogue of :func:`validate_pair_on_channel` on a t grid."""
    _require_kind(pair, "continuous", "generator validation")
    _require_horizon(t_max)
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    times = np.linspace(0.0, t_max, samples)
    return _validate_on_grid(
        pair, "t", times, _probe_bounds(_grid_step(gen, t_max, samples),
                                        gen.unit_time_map, samples, seed),
        _decay(pair.K, pair.rate, times), len(probe_inputs(gen.dim, seed=seed)))


# ---------------------------------------------------------------------------
# trajectory checks


def _require_unique(limit: SuperOperator, clock: str):
    """Refuse a map ``limit`` whose stationary state is not unique: the
    ``clock`` ("discrete" or "continuous") trajectory bound needs one."""
    multiplicity = fixed_point_analysis(limit).multiplicity
    if multiplicity != 1:
        raise HypothesisError(
            f"{clock} trajectory bound requires a unique stationary state "
            f"(eigenvalue-1 multiplicity {multiplicity})")


def _require_usable(pair: ConvergencePair):
    if not pair.valid:
        raise DomainError(
            "convergence pair failed empirical validation and cannot be used "
            f"to assert bounds (failures: {pair.details.get('validation_failures')})")


def _simulate(step_t: np.ndarray, step_e: np.ndarray, rho0: DensityMatrix,
              sigma0: DensityMatrix, count: int):
    """sigma_i and the exact ||rho_i - sigma_i||_1 for i < count, where
    rho_i = step_t^i rho_0 and sigma_i = step_e^i sigma_0, each stack of
    :func:`_powers` applied to the initial state in one product."""
    def evolve(step, state):
        return np.concatenate([apply_batch(block, state.matrix)
                               for block in _powers(step, count)])

    sigma_mats = evolve(step_e, sigma0)
    return sigma_mats, trace_norm_batch(evolve(step_t, rho0) - sigma_mats)


def _perturbation_norm(m_t: np.ndarray, m_e: np.ndarray, inputs: np.ndarray,
                       restarts: int, seed: int) -> float:
    """The estimate of ||E - T||_{1->1} from :func:`norm_1to1`, raised to
    its value on each of ``inputs`` (unit-trace-norm states, so each is an
    admissible input)."""
    dop = SuperOperator(inputs.shape[-1], m_e - m_t)
    value = norm_1to1(dop, restarts=restarts, seed=seed).value
    if len(inputs):
        value = max(value, norm_lower_bound_probes(dop.matrix, inputs))
    return value


def _bound_rows(pair: ConvergencePair, grid, terms, exact: np.ndarray,
                d0: float, dT: float, strict: bool, unit: str) -> list:
    """One BoundReport per point of the float array ``grid``, with the bound
    formula ``terms`` evaluated once over it; strict raises below -STRICT_TOL."""
    _, pre, initial, pert = terms(pair.K, pair.rate, grid, d0, dT)
    bound = initial + pert
    reports = [BoundReport(
        n_or_t=x, exact=ex, bound=b, slack=s,
        regime="pre_threshold" if p else "post_threshold",
        K=pair.K, rate=pair.rate, recipe=pair.recipe)
        for x, ex, b, s, p in zip(grid.tolist(), exact.tolist(), bound.tolist(),
                                  (bound - exact).tolist(), pre.tolist())]
    bad = [r for r in reports if r.slack < -STRICT_TOL]
    if strict and bad:
        raise BoundViolationError(
            f"{len(bad)} of {len(reports)} {unit} violate the bound "
            f"(worst slack {min(r.slack for r in bad):.3g})", reports=reports)
    return reports


def discrete_trajectory_check(t: SuperOperator, e: SuperOperator,
                              rho0: DensityMatrix, sigma0: DensityMatrix,
                              n_steps: int, pair: ConvergencePair,
                              restarts: int = 8, seed: int = 0,
                              strict: bool = True) -> list:
    """Exact simulated ||rho_n - sigma_n||_1 against the per-step bound.

    The pair is validated on steps 0..n_steps with ``seed`` on every call
    and refused if it fails there.  The perturbation norm ||E - T|| is
    estimated by the multistart optimizer and additionally evaluated on
    every simulated sigma_i (each is an admissible unit-trace-norm input),
    which makes the bound dominate the trajectory whenever the pair's
    certificate holds.  With ``strict=True`` a violation beyond
    ``STRICT_TOL`` raises :class:`BoundViolationError` carrying the records.
    """
    if not t.dim == e.dim == rho0.dim == sigma0.dim:
        raise DomainError("maps and states must act on the same dimension")
    _require_steps(n_steps, "n_steps")
    _require_unique(t, "discrete")
    _require_kind(pair, "discrete", "discrete trajectory check")
    _require_usable(validate_pair_on_channel(pair, t, n_max=n_steps, seed=seed))

    sigma_mats, exact = _simulate(t.matrix, e.matrix, rho0, sigma0, n_steps + 1)
    d0 = trace_norm(rho0.matrix - sigma0.matrix)
    dT = _perturbation_norm(t.matrix, e.matrix, sigma_mats[:-1], restarts, seed)
    return _bound_rows(pair, np.arange(n_steps + 1.0), _discrete_terms, exact,
                       d0, dT, strict, "steps")


def continuous_trajectory_check(gen_t: GeneratorMap, gen_e: GeneratorMap,
                                rho0: DensityMatrix, sigma0: DensityMatrix,
                                t_max: float, steps: int, pair: ConvergencePair,
                                restarts: int = 8, seed: int = 0,
                                strict: bool = True) -> list:
    """Continuous counterpart of :func:`discrete_trajectory_check`.

    Both semigroups are propagated at ``steps`` uniform times in
    [0, t_max], the grid the pair is validated on, as powers of each
    generator's :func:`_grid_step`, the reference's being its validation's.
    """
    if not gen_t.dim == gen_e.dim == rho0.dim == sigma0.dim:
        raise DomainError("generators and states must act on the same dimension")
    _require_grid(t_max, steps)
    _require_unique(gen_t.unit_time_map, "continuous")
    _require_kind(pair, "continuous", "continuous trajectory check")
    _require_usable(validate_pair_on_generator(pair, gen_t, t_max=t_max,
                                               samples=steps, seed=seed))

    sigma_mats, exact = _simulate(_grid_step(gen_t, t_max, steps).matrix,
                                  _grid_step(gen_e, t_max, steps).matrix,
                                  rho0, sigma0, steps)
    d0 = trace_norm(rho0.matrix - sigma0.matrix)
    dL = _perturbation_norm(gen_t.matrix, gen_e.matrix, sigma_mats, restarts, seed)
    return _bound_rows(pair, np.linspace(0.0, t_max, steps), _continuous_terms,
                       exact, d0, dL, strict, "times")
