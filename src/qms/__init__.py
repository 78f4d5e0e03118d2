"""Perturbation bounds for fixed points of quantum Markov processes.

Build channels (:mod:`qms.channels`), analyze their fixed-point structure
(:mod:`qms.spectral`), estimate contraction coefficients
(:mod:`qms.contraction`), and evaluate the condition-number and
finite-time perturbation bounds (:mod:`qms.stability`,
:mod:`qms.finite_time`).  The ``qms`` command line exposes the same
functionality on channel files.

``import qms`` loads none of these modules.  Each public name is imported
from its defining module on first access (PEP 562), so ``qms.tau`` and
``from qms import tau`` load :mod:`qms.contraction` and what it imports,
and nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

# the defining module of each public name
_EXPORTS = {
    "channels": (
        "DensityMatrix", "GeneratorMap", "SuperOperator",
        "amplitude_damping_channel", "basis_state", "choi_matrix",
        "completely_depolarizing", "compose", "depolarizing_channel",
        "depolarizing_generator", "dual", "from_kraus", "from_lindblad",
        "from_stochastic", "generator_exponential", "identity_channel",
        "maximally_mixed", "pauli_channel", "pure_state", "validate"),
    "contraction": ("ContractionEstimate", "norm_1to1", "tau"),
    "ensembles": (
        "EnsembleConfig", "perturb_channel", "perturb_generator",
        "random_channel", "random_density", "random_generator", "sweep"),
    "finite_time": (
        "BoundReport", "ConvergencePair", "FiniteTimeBound",
        "asymptotic_continuous", "asymptotic_discrete", "continuous_bound",
        "continuous_trajectory_check", "discrete_bound",
        "discrete_trajectory_check", "n_hat", "pair_chi2", "pair_chi2_generator",
        "pair_detailed_balance", "pair_detailed_balance_generator",
        "pair_spectral_eq10", "t_hat", "user_pair"),
    "linalg": ("matrix_exp", "trace_norm", "unvec", "vec"),
    "spectral": (
        "MinimalPolynomial", "SpectralData", "fixed_point_analysis",
        "fundamental_map", "minimal_polynomial", "spectral_quantities"),
    "stability": (
        "ConditionReport", "PerturbationOutcome", "condition_numbers",
        "fixed_point_perturbation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
