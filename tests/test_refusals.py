"""Inputs outside each function's domain are refused with a typed error.

One table of (call, error type, message fragment) over the constructors,
random families, pair constants, linear-algebra helpers, the JSON reader
and the command line (whose refusals exit 2).
"""

import contextlib
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest

from qms.channels import (DensityMatrix, GeneratorMap, amplitude_damping_channel,
                          compose, depolarizing_channel, depolarizing_generator,
                          from_kraus, from_lindblad, from_stochastic,
                          maximally_mixed, pauli_channel, pure_state)
from qms.cli import main
from qms.ensembles import (EnsembleConfig, perturb_channel, perturb_generator,
                           random_channel, random_generator)
from qms.errors import DimensionError, DomainError, SchemaError, ValidationError
from qms.finite_time import (ConvergencePair, asymptotic_continuous,
                             asymptotic_discrete, continuous_bound,
                             discrete_bound, user_pair)
from qms.linalg import as_matrix, matrix_exp, unvec
from qms.serialize import (channel_from_json, channel_to_dict, dumps_json,
                           state_to_dict)
from qms.stability import fixed_point_perturbation


class UsageExit(Exception):
    """The command line's exit 2, carrying what it wrote to stderr."""


def _cli(*argv):
    """Run ``qms`` with each map or state in ``argv`` written to a file
    first (a state as ``file:PATH``); exit 2 raises :class:`UsageExit`."""
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for i, arg in enumerate(argv):
            if not isinstance(arg, str):
                path = os.path.join(tmp, f"{i}.json")
                state = isinstance(arg, DensityMatrix)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(dumps_json(state_to_dict(arg) if state
                                        else channel_to_dict(arg)))
                arg = "file:" + path if state else path
            args.append(arg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(args)
    if code == 2:
        raise UsageExit(err.getvalue())
    return code


_T = depolarizing_channel(0.5)
_QUTRIT = depolarizing_channel(0.5, 3)
_GEN = depolarizing_generator(1.0)


def _json(**doc):
    return channel_from_json(dumps_json(doc))


@pytest.mark.parametrize("call, error, fragment", [
    # channels
    (lambda: pure_state([0.0, 0.0]), ValidationError, "pure_state: zero vector"),
    (lambda: from_kraus([]), ValidationError, "from_kraus: empty Kraus list"),
    (lambda: from_stochastic([[1.0, 0.0]]), DimensionError,
     "stochastic matrix must be square, got (1, 2)"),
    (lambda: from_stochastic([[math.nan, 1.0], [0.5, 0.5]]), ValidationError,
     "stochastic matrix has non-finite entries"),
    (lambda: compose(_T, _QUTRIT), DimensionError,
     "cannot compose maps of dims 2 and 3"),
    (lambda: from_lindblad([[0.0, 1.0], [0.0, 0.0]], []), ValidationError,
     "Hamiltonian must be Hermitian"),
    (lambda: from_lindblad(np.eye(2), [np.eye(3)]), DimensionError,
     "jump operator 0 has shape (3, 3), expected 2x2"),
    (lambda: pauli_channel(0.5, 0.5, 0.5), ValidationError,
     "Pauli probabilities must be nonnegative and sum to <= 1"),
    (lambda: pauli_channel(-0.1, 0.0, 0.0), ValidationError,
     "Pauli probabilities must be nonnegative and sum to <= 1"),
    (lambda: depolarizing_channel(1.5), ValidationError,
     "depolarizing parameter must lie in [0, 1]"),
    (lambda: amplitude_damping_channel(-0.1), ValidationError,
     "damping parameter must lie in [0, 1]"),
    (lambda: DensityMatrix(2, np.eye(3) / 3), DimensionError,
     "density matrix shape (3, 3) != dim 2"),
    (lambda: DensityMatrix(2, np.eye(2)), ValidationError,
     "density matrix trace 2 != 1"),
    (lambda: DensityMatrix(2, np.diag([1.5, -0.5])), ValidationError,
     "density matrix has eigenvalue -0.5 < -1e-10"),
    (lambda: GeneratorMap(2, np.zeros((9, 9))), DimensionError,
     "generator matrix is (9, 9), expected dim^2 = 4"),
    (lambda: _T.apply(np.eye(3)), DimensionError, "input is 3x3, map has dim 2"),
    # random families
    (lambda: EnsembleConfig(dim=2, count=1, master_seed=0, kraus_rank=0),
     ValidationError, "kraus_rank must be >= 1"),
    (lambda: EnsembleConfig(dim=2, count=1, master_seed=0, mode="quantum"),
     ValidationError, "unknown mode 'quantum'"),
    (lambda: random_channel(2, 0, 1), ValidationError, "kraus_rank must be >= 1"),
    (lambda: random_generator(2, -1, 1), ValidationError,
     "jump_count must be >= 0"),
    (lambda: perturb_channel(_T, 2.0, 1), ValidationError,
     "eps must lie in [0, 1]"),
    (lambda: perturb_generator(_GEN, 2.0, 1), ValidationError,
     "eps must lie in [0, 1]"),
    # convergence pairs and bounds
    (lambda: ConvergencePair(1.0, 0.5, "quantum", "chi2"), ValidationError,
     "unknown pair kind 'quantum'"),
    (lambda: ConvergencePair(1.0, 0.5, "discrete", "magic"), ValidationError,
     "unknown pair recipe 'magic'"),
    (lambda: asymptotic_discrete(user_pair(1.0, 0.5), -1.0), DomainError,
     "dT must be nonnegative"),
    (lambda: continuous_bound(user_pair(1.0, 1.0, "continuous"), -1.0, 0.0, 0.0),
     DomainError, "t, d0 and dL must be nonnegative"),
    (lambda: asymptotic_continuous(user_pair(0.0, 1.0, "continuous"), 0.1),
     DomainError, "requires K > 0"),
    (lambda: asymptotic_continuous(user_pair(2.0, 1.0, "continuous"), -1.0),
     DomainError, "dL must be nonnegative"),
    # NaN is refused like a negative value, not returned as a NaN bound
    (lambda: discrete_bound(user_pair(1.0, 0.5), math.nan, 0.0, 0.0),
     DomainError, "n, d0 and dT must be nonnegative"),
    (lambda: asymptotic_discrete(user_pair(1.0, 0.5), math.nan), DomainError,
     "dT must be nonnegative"),
    (lambda: continuous_bound(user_pair(1.0, 1.0, "continuous"), 1.0, math.nan,
                              0.0),
     DomainError, "t, d0 and dL must be nonnegative"),
    (lambda: asymptotic_continuous(user_pair(2.0, 1.0, "continuous"), math.nan),
     DomainError, "dL must be nonnegative"),
    # linear algebra
    (lambda: as_matrix(np.zeros((2, 2, 2))), DimensionError,
     "matrix: expected a 2-d array, got ndim=3"),
    (lambda: unvec(np.zeros(3)), DimensionError,
     "unvec: vector of length 3 is not 2x2"),
    (lambda: matrix_exp(np.eye(2), math.inf), ValidationError,
     "matrix_exp: t must be finite"),
    # the JSON reader
    (lambda: channel_from_json('{"dim": 1, "representation": "superoperator", '
                               '"data": [[[1e400, 0]]]}'),
     SchemaError, "data[0][0]: entries must be finite"),
    (lambda: _json(dim=2, representation="stochastic", data=[[1.0, 0.0], [1.0]]),
     SchemaError, "data[1]: expected 2 entries"),
    (lambda: channel_from_json("[1]"), SchemaError,
     "top level: expected an object, got list"),
    (lambda: _json(dim=1, representation="superoperator", label=3,
                   data=[[[1.0, 0.0]]]),
     SchemaError, "label: expected a string"),
    (lambda: _json(dim=2, representation="kraus", data=[]), SchemaError,
     "data: expected a nonempty array of Kraus operators"),
    # the command line
    (lambda: _cli("analyze", _GEN), UsageExit,
     "expected a channel representation, got a generator"),
    (lambda: _cli("compare", _T, _T, "--state", maximally_mixed(3)), UsageExit,
     "error: state has dim 3, expected 2"),
    (lambda: _cli("compare", _T, _T, "--state", "pure"), UsageExit,
     "error: --state: expected maximally-mixed or file:PATH, got 'pure'"),
    (lambda: _cli("compare", _T, _QUTRIT), UsageExit, "error: dims differ: 2 vs 3"),
    # stability
    (lambda: fixed_point_perturbation(_T, _QUTRIT, maximally_mixed(3)),
     DimensionError, "maps have different dims 2 != 3"),
], ids=["pure_state", "from_kraus", "stochastic_shape", "stochastic_nan",
        "compose", "lindblad_h", "lindblad_jump", "pauli_sum", "pauli_negative",
        "depolarizing", "amplitude_damping", "density_shape", "density_trace",
        "density_negative", "generator_shape", "apply_shape",
        "config_kraus_rank", "config_mode", "random_channel", "random_generator",
        "perturb_channel", "perturb_generator", "pair_kind", "pair_recipe",
        "asymptotic_discrete", "continuous_bound", "asymptotic_continuous",
        "asymptotic_continuous_negative", "discrete_bound_nan",
        "asymptotic_discrete_nan", "continuous_bound_nan",
        "asymptotic_continuous_nan",
        "as_matrix", "unvec", "matrix_exp", "json_overflow", "json_short_row",
        "json_not_object", "json_label", "json_kraus_empty", "cli_analyze",
        "cli_state_dim", "cli_state_spec", "cli_compare_dims",
        "fixed_point_perturbation"])
def test_inputs_outside_the_domain_are_refused(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_pure_state_is_the_normalised_projector():
    rho = pure_state([3.0, 4.0j])
    assert rho.dim == 2
    assert np.allclose(rho.matrix, np.array([[9.0, -12.0j], [12.0j, 16.0]]) / 25.0)
