import math

import numpy as np
import pytest

from qms.channels import validate
from qms.contraction import norm_1to1, tau
from qms.ensembles import (EnsembleConfig, perturb_channel, perturb_generator,
                           random_channel, random_generator, sweep)
from qms.errors import DomainError, ValidationError
from qms.linalg import dagger, vec
from qms.serialize import reports_to_csv


def test_random_channel_is_cptp():
    for d, rank, seed in [(2, 4, 0), (3, 2, 1), (4, 16, 2)]:
        t = random_channel(d, rank, seed)
        assert t.trace_preserving
        assert t.tp_residual() <= 1e-12
        rep = validate(t, n_samples=50, seed=3)
        assert rep.completely_positive


def test_random_channel_deterministic():
    a = random_channel(3, 5, seed=42)
    b = random_channel(3, 5, seed=42)
    assert np.array_equal(a.matrix, b.matrix)
    c = random_channel(3, 5, seed=43)
    assert not np.allclose(a.matrix, c.matrix)


def test_random_channel_rank_one_is_unitary():
    t = random_channel(3, 1, seed=7)
    est = tau(t, restarts=8, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_random_generator_properties():
    gen = random_generator(2, 2, seed=5)
    vi = vec(np.eye(2))
    assert np.linalg.norm(dagger(gen.matrix) @ vi) <= 1e-12
    # Hamiltonian-only generator gives unitary conjugation, zero gap
    gen0 = random_generator(2, 0, seed=6, check=False)
    from qms.channels import generator_exponential
    from qms.spectral import spectral_quantities
    t = generator_exponential(gen0, 1.0)
    spec = spectral_quantities(t)
    assert spec.spectral_gap <= 1e-9


def test_random_generator_deterministic():
    a = random_generator(2, 3, seed=11, check=False)
    b = random_generator(2, 3, seed=11, check=False)
    assert np.array_equal(a.matrix, b.matrix)


def test_perturb_channel_endpoints():
    t = random_channel(2, 4, seed=1)
    assert np.array_equal(perturb_channel(t, 0.0, seed=2).matrix, t.matrix)
    r = random_channel(2, 4, seed=2)
    assert np.allclose(perturb_channel(t, 1.0, seed=2).matrix, r.matrix)


def test_perturb_channel_small_eps_norm_bound():
    t = random_channel(2, 4, seed=9)
    tp = perturb_channel(t, 0.01, seed=10)
    rep = validate(tp, n_samples=50, seed=0)
    assert rep.trace_preserving and rep.completely_positive
    from qms.channels import SuperOperator
    d = SuperOperator(2, tp.matrix - t.matrix)
    assert norm_1to1(d, restarts=8, seed=0).value <= 2 * 0.01 + 1e-9


def test_perturb_generator_convexity():
    gen = random_generator(2, 2, seed=20, check=False)
    pert = perturb_generator(gen, 0.05, seed=21)
    vi = vec(np.eye(2))
    assert np.linalg.norm(dagger(pert.matrix) @ vi) <= 1e-10


def test_config_validation():
    with pytest.raises(ValidationError):
        EnsembleConfig(dim=2, count=0, master_seed=1)
    with pytest.raises(ValidationError):
        EnsembleConfig(dim=2, count=1, master_seed=1, perturbation_eps=2.0)
    cfg = EnsembleConfig(dim=3, count=1, master_seed=1)
    assert cfg.kraus_rank == 9


def test_sweep_single_instance_and_determinism():
    cfg = EnsembleConfig(dim=2, count=2, master_seed=77, perturbation_eps=1e-2)
    rows1 = sweep(cfg, steps=10, restarts=4)
    rows2 = sweep(cfg, steps=10, restarts=4)
    assert reports_to_csv(rows1) == reports_to_csv(rows2)
    fixed_rows = [r for r in rows1 if r.regime == "fixed_point"]
    assert len(fixed_rows) == 2
    assert all(r.slack >= -1e-6 for r in rows1 if not math.isnan(r.slack))


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_sweep_refuses_restarts_below_one(mode):
    cfg = EnsembleConfig(dim=2, count=2, master_seed=77, mode=mode)
    with pytest.raises(DomainError, match="restarts must be >= 1, got 0"):
        sweep(cfg, steps=5, restarts=0)


@pytest.mark.parametrize("steps, t_max, message", [
    (1, 10.0, "need at least 2 time samples"),
    (5, -1.0, "t_max must be finite and nonnegative, got -1.0"),
    (5, math.inf, "t_max must be finite and nonnegative, got inf"),
    (5, math.nan, "t_max must be finite and nonnegative, got nan")])
def test_continuous_sweep_refuses_a_bad_grid_up_front(steps, t_max, message):
    # the trajectory check's grid rule, raised before any instance runs
    # rather than turned into error rows
    cfg = EnsembleConfig(dim=2, count=2, master_seed=77, mode="continuous")
    with pytest.raises(DomainError, match=f"^{message}$"):
        sweep(cfg, steps=steps, restarts=2, t_max=t_max)


def test_sweep_continuous_mode():
    cfg = EnsembleConfig(dim=2, count=1, master_seed=5, perturbation_eps=1e-2,
                         mode="continuous")
    rows = sweep(cfg, steps=20, restarts=4, t_max=5.0)
    assert len(rows) == 20
    assert all(r.slack >= -1e-6 for r in rows)


def test_sweep_records_errors_without_aborting(monkeypatch):
    import qms.ensembles as ens
    real = ens.pair_chi2
    calls = {"n": 0}

    def flaky(t, n_check=50, seed=0):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ValidationError("synthetic failure")
        return real(t, n_check=n_check, seed=seed)

    monkeypatch.setattr(ens, "pair_chi2", flaky)
    cfg = EnsembleConfig(dim=2, count=2, master_seed=13, perturbation_eps=1e-2)
    rows = sweep(cfg, steps=5, restarts=4)
    errors = [r for r in rows if r.regime == "error"]
    assert len(errors) == 1 and errors[0].instance == 0
    assert "synthetic failure" in errors[0].error
    assert any(r.instance == 1 and r.regime != "error" for r in rows)
