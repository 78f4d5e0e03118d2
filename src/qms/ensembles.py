"""Reproducible random channels, generators and perturbations.

Sampling is driven by the SplitMix64 stream of :mod:`qms.rng`; instance i
of a sweep uses the derived seed master_seed * 0x9E3779B97F4A7C15 + i, so
sweeps are bit-reproducible and instance-parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (DensityMatrix, GeneratorMap, SuperOperator, choi_matrix,
                       from_kraus, from_lindblad, generator_exponential)
from .contraction import _require_restarts
from .errors import DomainError, QmsError, ValidationError
from .finite_time import (BoundReport, _require_horizon,
                          continuous_trajectory_check, discrete_trajectory_check,
                          pair_chi2, pair_chi2_generator)
from .linalg import dagger
from .rng import SplitMix64, derive_seed
from .stability import fixed_point_perturbation
from .spectral import fixed_point_analysis


@dataclass
class EnsembleConfig:
    """Parameters of a random sweep."""

    dim: int
    count: int
    master_seed: int
    kraus_rank: int | None = None       # defaults to dim**2
    perturbation_eps: float = 1e-2
    mode: str = "discrete"              # "discrete" | "continuous"

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError(f"dim must be >= 2, got {self.dim}")
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        if self.kraus_rank is None:
            self.kraus_rank = self.dim ** 2
        if self.kraus_rank < 1:
            raise ValidationError("kraus_rank must be >= 1")
        if not 0.0 <= self.perturbation_eps <= 1.0:
            raise ValidationError("perturbation_eps must lie in [0, 1]")
        if self.mode not in ("discrete", "continuous"):
            raise ValidationError(f"unknown mode {self.mode!r}")


def random_channel(d: int, kraus_rank: int, seed: int) -> SuperOperator:
    """A Haar-isometry random channel with the given Kraus rank.

    Samples a (d * kraus_rank) x d complex Gaussian matrix, orthonormalizes
    its columns (QR with the positive-diagonal-R convention, so the draw is
    deterministic per seed) and slices the isometry into Kraus operators.
    The result is exactly trace preserving up to roundoff.
    """
    if kraus_rank < 1:
        raise ValidationError("kraus_rank must be >= 1")
    gen = SplitMix64(seed)
    g = gen.complex_normals((d * kraus_rank, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    phase = np.where(np.abs(diag) > 0, diag / np.maximum(np.abs(diag), 1e-300), 1.0)
    iso = q * phase.conj()[None, :]
    ops = [iso[k * d:(k + 1) * d, :] for k in range(kraus_rank)]
    return from_kraus(ops, label=f"random_channel(d={d}, rank={kraus_rank}, seed={seed})")


def random_density(d: int, seed: int) -> DensityMatrix:
    """A random full-rank density matrix (Gaussian G, then G G^dag / tr)."""
    gen = SplitMix64(seed)
    g = gen.complex_normals((d, d))
    m = g @ dagger(g)
    return DensityMatrix(d, m / np.trace(m).real)


def random_generator(d: int, jump_count: int, seed: int,
                     check: bool = True) -> GeneratorMap:
    """A random Lindblad generator with Gaussian Hamiltonian and jumps.

    With ``check=True`` the semigroup is spot-checked to be CPTP at
    t in {0.1, 1} via the Choi matrix.
    """
    if jump_count < 0:
        raise ValidationError("jump_count must be >= 0")
    gen = SplitMix64(seed)
    g = gen.complex_normals((d, d))
    h = (g + dagger(g)) / 2
    jumps = [gen.complex_normals((d, d)) for _ in range(jump_count)]
    out = from_lindblad(h, jumps)
    if check:
        for tt in (0.1, 1.0):
            snap = generator_exponential(out, tt)
            j = choi_matrix(snap)
            min_eig = float(np.linalg.eigvalsh((j + dagger(j)) / 2).min())
            if snap.tp_residual() > 1e-8 or min_eig < -1e-8:
                raise ValidationError(
                    f"random generator failed the CPTP spot check at t={tt} "
                    f"(tp residual {snap.tp_residual():.3g}, min Choi eig {min_eig:.3g})")
    return out


def perturb_channel(t: SuperOperator, eps: float, seed: int) -> SuperOperator:
    """(1 - eps) T + eps R with R a fresh random channel; CPTP by convexity."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("eps must lie in [0, 1]")
    r = random_channel(t.dim, t.dim ** 2, seed)
    return SuperOperator(t.dim, (1.0 - eps) * t.matrix + eps * r.matrix,
                         label=f"perturbed(eps={eps:g})")


def perturb_generator(gen: GeneratorMap, eps: float, seed: int) -> GeneratorMap:
    """(1 - eps) L + eps L' with L' a fresh random generator with dim jump
    operators (still Lindblad)."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("eps must lie in [0, 1]")
    other = random_generator(gen.dim, gen.dim, seed, check=False)
    return GeneratorMap(gen.dim, (1.0 - eps) * gen.matrix + eps * other.matrix)


def _discrete_instance(config: EnsembleConfig, index: int, steps: int,
                       restarts: int) -> list:
    seed = derive_seed(config.master_seed, index)
    t = random_channel(config.dim, config.kraus_rank, derive_seed(seed, 1))
    t2 = perturb_channel(t, config.perturbation_eps, derive_seed(seed, 2))
    rho2 = fixed_point_analysis(t2).limit_state(
        random_density(config.dim, derive_seed(seed, 3)).matrix)
    outcome = fixed_point_perturbation(t, t2, rho2, restarts=restarts,
                                       seed=derive_seed(seed, 4))
    row = BoundReport(
        n_or_t=math.nan, exact=outcome.actual_distance,
        bound=outcome.bound_value,
        slack=outcome.bound_value - outcome.actual_distance,
        regime="fixed_point", kappa_variant="tau_z")

    pair = pair_chi2(t, n_check=steps, seed=derive_seed(seed, 5))
    rho0 = random_density(config.dim, derive_seed(seed, 6))
    return [row] + discrete_trajectory_check(t, t2, rho0, rho0, steps, pair,
                                             restarts=restarts,
                                             seed=derive_seed(seed, 7),
                                             strict=False)


def _continuous_instance(config: EnsembleConfig, index: int, steps: int,
                         restarts: int, t_max: float) -> list:
    seed = derive_seed(config.master_seed, index)
    gen_t = random_generator(config.dim, config.dim, derive_seed(seed, 1),
                             check=False)
    gen_e = perturb_generator(gen_t, config.perturbation_eps, derive_seed(seed, 2))
    pair = pair_chi2_generator(gen_t, t_max=t_max, samples=steps,
                               seed=derive_seed(seed, 5))
    rho0 = random_density(config.dim, derive_seed(seed, 6))
    return continuous_trajectory_check(gen_t, gen_e, rho0, rho0, t_max, steps,
                                       pair, restarts=restarts,
                                       seed=derive_seed(seed, 7), strict=False)


def sweep(config: EnsembleConfig, steps: int = 50, restarts: int = 8,
          t_max: float = 10.0) -> list:
    """Generate ``config.count`` instances and collect all bound records.

    Per-instance failures become error rows instead of aborting the sweep;
    output order is fixed by instance index, so the result is identical for
    identical configs regardless of any parallel execution of instances.
    Fewer than 1 restart, for a continuous sweep fewer than 2 time samples
    or a horizon that is not finite and nonnegative, and for a discrete
    sweep Kraus rank 1 (a unitary channel, whose stationary state is never
    unique) raise :class:`DomainError` up front.
    """
    _require_restarts(restarts)
    if config.mode == "continuous":
        if steps < 2:
            raise DomainError("need at least 2 time samples")
        _require_horizon(t_max)
    elif config.kraus_rank == 1:
        raise DomainError("kraus_rank 1 gives a unitary channel, "
                          "which has no unique stationary state")
    rows: list[BoundReport] = []
    for index in range(config.count):
        try:
            if config.mode == "discrete":
                records = _discrete_instance(config, index, steps, restarts)
            else:
                records = _continuous_instance(config, index, steps,
                                               restarts, t_max)
        except QmsError as exc:
            records = [BoundReport(
                n_or_t=math.nan, exact=math.nan, bound=math.nan,
                slack=math.nan, regime="error",
                error=f"{type(exc).__name__}: {exc}")]
        for row in records:
            row.instance = index
        rows.extend(records)
    return rows
