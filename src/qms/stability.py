"""Condition numbers and fixed-point perturbation bounds.

The central object is the condition number kappa = tau(Z(T)), where
Z(T) = (id - (T - T^inf))^{-1} is the fundamental map.  It is sandwiched by
spectral quantities,

    1 / min|1 - lambda|  <=  tau(Z(T))  <=  2 (5 pi/3 + 2 sqrt(2)) d^3 / min|1 - lambda|,

with the minimum over the non-unit eigenvalues, and (for maps with a unique
stationary state) bounded by the contraction coefficient via
tau(Z) <= (1 - tau(T))^{-1}.  The displacement of the stationary state under
a perturbation of the transition map obeys the exact identity

    rho_1 - rho_2 = Z(T_1) o (T_1 - T_2) (rho_2),

which gives ||rho_1 - rho_2||_1 <= kappa ||T_1 - T_2||_{1->1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .channels import DensityMatrix, SuperOperator, check_stationary
from .contraction import DEFAULT_RESTARTS, ContractionEstimate, estimate_batch
from .errors import DimensionError
from .linalg import trace_norm, vec, unvec
from .spectral import fixed_point_analysis, fundamental_map

# 2 (5 pi / 3 + 2 sqrt(2)); multiplied by d^3 in the spectral upper bound.
SPECTRAL_UPPER_COEFF = 2.0 * (5.0 * math.pi / 3.0 + 2.0 * math.sqrt(2.0))


@dataclass
class ConditionReport:
    """All condition-number variants for one map.

    ``kappa_contraction`` is None (with ``kappa_contraction_reason``) when
    the stationary state is not unique, and +inf when tau(T) >= 1 - 1e-9.
    ``peripheral_spectrum`` flags maps with non-unit eigenvalues on the unit
    circle, where the spectral upper bound rests on a continuity argument.
    """

    dim: int
    kappa_tau_z: ContractionEstimate
    tau_t: ContractionEstimate
    spectral_lower: float
    spectral_upper: float
    min_dist_to_one: float
    kappa_contraction: Optional[float] = None
    kappa_contraction_reason: Optional[str] = None
    peripheral_spectrum: bool = False
    unique_stationary: bool = True

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "kappa_tau_z": self.kappa_tau_z.to_dict(),
            "tau_t": self.tau_t.to_dict(),
            "kappa_contraction": self.kappa_contraction,
            "kappa_contraction_reason": self.kappa_contraction_reason,
            "spectral_lower": self.spectral_lower,
            "spectral_upper": self.spectral_upper,
            "min_dist_to_one": self.min_dist_to_one,
            "peripheral_spectrum": self.peripheral_spectrum,
            "unique_stationary": self.unique_stationary,
        }


@dataclass
class PerturbationOutcome:
    """Displacement of a stationary state against the condition-number bound.

    ``identity_residual`` measures the exact identity
    (rho1 - rho2) = Z(T1) o (T1 - T2)(rho2) and must vanish to 1e-8
    regardless of how tight the norm bound is.  ``bounds`` holds every
    (kappa variant x norm mode) product for transparency; ``bound_value``
    is the primary one, tau(Z(T1)) times the general-mode norm estimate.
    """

    rho1: DensityMatrix
    rho2: DensityMatrix
    actual_distance: float
    bound_value: float
    identity_residual: float
    norm_estimates: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    condition_report: Optional[ConditionReport] = None

    def to_dict(self) -> dict:
        return {
            "actual_distance": self.actual_distance,
            "bound_value": self.bound_value,
            "slack": self.bound_value - self.actual_distance,
            "identity_residual": self.identity_residual,
            "norm_estimates": dict(self.norm_estimates),
            "bounds": dict(self.bounds),
            "condition_report": (self.condition_report.to_dict()
                                 if self.condition_report else None),
        }


def condition_numbers(t: SuperOperator, restarts: int = DEFAULT_RESTARTS,
                      seed: int = 0) -> ConditionReport:
    """Compute tau(Z(T)), (1 - tau(T))^{-1} and the spectral sandwich bounds.

    When the set of non-unit eigenvalues is empty (degenerate spectrum) the
    sandwich is vacuous: the lower bound is 0 and the upper bound +inf.
    tau(Z) and tau(T) come from one batched estimate.
    """
    analysis = fixed_point_analysis(t)
    kappa_tau_z, tau_t = estimate_batch(
        [(fundamental_map(t, analysis), "tau"), (t, "tau")], restarts, seed)
    return _condition_report(t, analysis, kappa_tau_z, tau_t)


def _condition_report(t: SuperOperator, analysis,
                      kappa_tau_z: ContractionEstimate,
                      tau_t: ContractionEstimate) -> ConditionReport:
    """:func:`condition_numbers` from T's analysis and the estimates of
    tau(Z(T)) and tau(T)."""
    spec = analysis.spectral
    unique = analysis.multiplicity == 1
    if not unique:
        kappa_contraction = None
        reason = "stationary state is not unique"
    elif tau_t.value >= 1.0 - 1e-9:
        kappa_contraction = math.inf
        reason = None
    else:
        kappa_contraction = 1.0 / (1.0 - tau_t.value)
        reason = None

    if math.isinf(spec.min_dist_to_one):
        lower, upper = 0.0, math.inf
    else:
        lower = 1.0 / spec.min_dist_to_one
        upper = SPECTRAL_UPPER_COEFF * t.dim ** 3 / spec.min_dist_to_one

    return ConditionReport(dim=t.dim, kappa_tau_z=kappa_tau_z, tau_t=tau_t,
                           kappa_contraction=kappa_contraction,
                           kappa_contraction_reason=reason,
                           spectral_lower=lower, spectral_upper=upper,
                           min_dist_to_one=spec.min_dist_to_one,
                           peripheral_spectrum=analysis.peripheral_spectrum,
                           unique_stationary=unique)


def fixed_point_perturbation(t1: SuperOperator, t2: SuperOperator,
                             rho2: DensityMatrix,
                             restarts: int = DEFAULT_RESTARTS,
                             seed: int = 0) -> PerturbationOutcome:
    """Compare ||rho1 - rho2||_1 with kappa ||T1 - T2||_{1->1}.

    ``rho2`` must be stationary for ``t2`` (trace-norm residual <= 1e-9);
    rho1 is taken to be T1^inf(rho2).  The returned outcome carries the
    exact-identity residual, the primary bound and the full
    (kappa variant x norm mode) table.  tau(Z(T1)), tau(T1) and both
    norms of T1 - T2 come from one batched estimate.
    """
    if t1.dim != t2.dim:
        raise DimensionError(f"maps have different dims {t1.dim} != {t2.dim}")
    check_stationary(t2, rho2)

    analysis1 = fixed_point_analysis(t1)
    z1 = fundamental_map(t1, analysis1)
    rho1 = analysis1.limit_state(rho2.matrix)

    diff = rho1.matrix - rho2.matrix
    actual = trace_norm(diff)
    dmat = t1.matrix - t2.matrix
    identity_residual = trace_norm(
        diff - unvec(z1.matrix @ (dmat @ vec(rho2.matrix)), t1.dim))

    dop = SuperOperator(t1.dim, dmat)
    at_rho2 = trace_norm(dop.apply(rho2.matrix))
    kappa_tau_z, tau_t, hermitian, general = estimate_batch(
        [(z1, "tau"), (t1, "tau"), (dop, "hermitian"), (dop, "general")],
        restarts, seed)
    # rho2 is a Hermitian input of unit trace norm, so it is a valid extra
    # candidate for both modes; including it makes the Thm-1 style bound
    # provably dominate the measured displacement.  Every Hermitian input
    # is admissible in general mode too, so general >= Hermitian.
    norm_hermitian = max(hermitian.value, at_rho2)
    norm_general = max(general.value, norm_hermitian)

    report = _condition_report(t1, analysis1, kappa_tau_z, tau_t)
    kappas = {"tau_z": report.kappa_tau_z.value,
              "contraction": report.kappa_contraction,
              "spectral_upper": report.spectral_upper}
    norms = {"general": norm_general, "hermitian": norm_hermitian}
    bounds = {}
    for kname, kval in kappas.items():
        for nname, nval in norms.items():
            bounds[f"{kname}*{nname}"] = (None if kval is None
                                          else float(kval) * nval)

    return PerturbationOutcome(
        rho1=rho1, rho2=rho2, actual_distance=actual,
        bound_value=report.kappa_tau_z.value * norm_general,
        identity_residual=identity_residual,
        norm_estimates={**norms, "at_rho2": at_rho2}, bounds=bounds,
        condition_report=report)
