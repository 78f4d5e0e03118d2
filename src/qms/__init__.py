"""Perturbation bounds for fixed points of quantum Markov processes.

Build channels (:mod:`qms.channels`), analyze their fixed-point structure
(:mod:`qms.spectral`), estimate contraction coefficients
(:mod:`qms.contraction`), and evaluate the condition-number and
finite-time perturbation bounds (:mod:`qms.stability`,
:mod:`qms.finite_time`).  The ``qms`` command line exposes the same
functionality on channel files.
"""

from .channels import (DensityMatrix, GeneratorMap, SuperOperator,
                       amplitude_damping_channel, basis_state, choi_matrix,
                       completely_depolarizing, compose, depolarizing_channel,
                       depolarizing_generator, dual, from_kraus, from_lindblad,
                       from_stochastic, generator_exponential, identity_channel,
                       maximally_mixed, pauli_channel, pure_state, validate)
from .contraction import ContractionEstimate, norm_1to1, tau, tau_exact_qubit
from .ensembles import (EnsembleConfig, perturb_channel, perturb_generator,
                        random_channel, random_density, random_generator, sweep)
from .finite_time import (BoundReport, ConvergencePair, FiniteTimeBound,
                          asymptotic_continuous, asymptotic_discrete,
                          continuous_bound, continuous_trajectory_check,
                          discrete_bound, discrete_trajectory_check, n_hat,
                          pair_chi2, pair_chi2_generator, pair_detailed_balance,
                          pair_detailed_balance_generator, pair_spectral_eq10,
                          t_hat, user_pair)
from .linalg import matrix_exp, trace_norm, unvec, vec
from .spectral import (MinimalPolynomial, SpectralData, fixed_point_analysis,
                       fixed_point_projector, fundamental_map, minimal_polynomial,
                       spectral_quantities)
from .stability import (ConditionReport, PerturbationOutcome, condition_numbers,
                        fixed_point_perturbation)

__version__ = "0.1.0"

# the classes and functions imported above, not the submodules they bind
__all__ = [name for name in dir() if not name.startswith("_")
           and callable(globals()[name])]
