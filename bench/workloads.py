"""The four benchmark workloads: inputs, one op, its correctness gate.

Every input is drawn from the workload seed through ``qms.rng`` and the
``qms.ensembles`` samplers, from the families the acceptance suite uses.
No input is filtered by running the program on it, so a refusal by a
recipe shows up as a failed op.  Import this module only after
``import qms`` has been timed: it imports numpy and qms itself.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qms import finite_time, spectral, stability
from qms.channels import DensityMatrix, depolarizing_channel, pauli_channel
from qms.ensembles import (perturb_channel, perturb_generator, random_channel,
                           random_density, random_generator)
from qms.rng import SplitMix64, derive_seed
from qms.serialize import channel_to_dict, dumps_json

BENCH_DIR = Path(__file__).resolve().parent

# Ops call qms through module attributes, so that the traced run's wrappers
# (installed in the qms module namespaces) see the op's entry call too.

# Tolerances of the acceptance criteria (tests/test_acceptance.py).
IDENTITY_TOL = 1e-8
SLACK_TOL = 1e-6
SANDWICH_TOL = 1e-4


def _trace_norm(m) -> float:
    # Computed at input generation, before any kernel is wrapped.
    return float(np.linalg.svd(m, compute_uv=False).sum())


def choi_trace_norm(m: np.ndarray, d: int) -> float:
    """||J(L)||_1 for the superoperator matrix ``m`` (column stacking).

    J(L) = sum_ab E_ab (x) L(E_ab), and L(E_ab)[i, j] = m[i + d j, a + d b];
    ||J(L)||_1 bounds ||L||_{1->1} from above.
    """
    j = m.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    return _trace_norm(j)


class Workload:
    """One kind of op.  ``n_fixed`` ops always run: they carry the traced
    per-layer counts and ``estimate_mean``, so both repeat exactly for a seed."""

    name = ""
    tag = 0
    n_fixed = 0
    pool = 0
    cycle = 1          # the timed phase ends only after a whole cycle of ops

    def __init__(self, seed: int, workdir: Path):
        self.seed = derive_seed(seed, self.tag)
        self.workdir = workdir

    def op_seed(self, i: int) -> int:
        return derive_seed(self.seed, i)

    def make_inputs(self, start: int, count: int) -> list:
        return [self.make_input(i) for i in range(start, start + count)]

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def gate(self, inp, out) -> str | None:
        """None if ``out`` is correct, else the reason it is not."""
        raise NotImplementedError

    def estimate(self, inp, out) -> float | None:
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# fixed-point perturbation (criteria 1-4)


@dataclass
class ConditionCase:
    t1: object
    t2: object
    rho2: DensityMatrix
    seed: int


class Condition(Workload):
    """One op is a case pair from the acceptance ``qubit_ensemble`` family:
    ``fixed_point_perturbation`` (restarts=8) on an independent channel
    pair, then on a channel and its 5% perturbation.

    The fixture alternates the two kinds, and the perturbed kind costs
    about twice as much; with one call per op the median would fall in the
    gap between the two modes and move with every seed.
    """

    dim = 2

    def make_case(self, s: int, perturbed: bool) -> ConditionCase:
        d = self.dim
        t1 = random_channel(d, d * d, derive_seed(s, 1))
        if perturbed:
            t2 = perturb_channel(t1, 0.05, derive_seed(s, 2))
        else:
            t2 = random_channel(d, d * d, derive_seed(s, 2))
        m = spectral.fixed_point_analysis(t2).projector.apply(
            random_density(d, derive_seed(s, 3)).matrix)
        m = (m + m.conj().T) / 2
        rho2 = DensityMatrix(d, m / np.trace(m).real)
        return ConditionCase(t1, t2, rho2, derive_seed(s, 4))

    def make_input(self, i):
        s = self.op_seed(i)
        return (self.make_case(derive_seed(s, 0), False),
                self.make_case(derive_seed(s, 1), True))

    def run(self, inp):
        return [stability.fixed_point_perturbation(c.t1, c.t2, c.rho2,
                                                   restarts=8, seed=c.seed)
                for c in inp]

    def gate(self, inp, out):
        for o in out:
            failure = self.gate_case(o)
            if failure:
                return failure
        return None

    def gate_case(self, out):
        if not out.identity_residual <= IDENTITY_TOL:
            return "identity residual above 1e-8"
        if not out.bound_value - out.actual_distance >= -SLACK_TOL:
            return "bound below the actual displacement"
        if self.dim != 2:
            return None
        rep = out.condition_report
        tz = rep.kappa_tau_z.value
        if rep.unique_stationary and rep.tau_t.value <= 0.999:
            if not 1.0 / (1.0 - rep.tau_t.value) - tz >= -SANDWICH_TOL:
                return "contraction bound (criterion 3) violated"
        if math.isfinite(rep.min_dist_to_one):
            if not (tz + SANDWICH_TOL >= rep.spectral_lower
                    and tz <= rep.spectral_upper):
                return "spectral sandwich (criterion 4) violated"
        return None

    def estimate(self, inp, out):
        vals = []
        for o in out:
            rep = o.condition_report
            vals += [rep.kappa_tau_z.value, rep.tau_t.value,
                     o.norm_estimates["general"], o.norm_estimates["hermitian"]]
        return sum(vals) / len(vals)


class QubitCondition(Condition):
    name = "qubit_condition"
    tag = 0x51
    dim = 2
    n_fixed = 30
    pool = 64


class QuditCondition(Condition):
    name = "qudit_condition"
    tag = 0x53
    dim = 3
    n_fixed = 12
    pool = 24


# ---------------------------------------------------------------------------
# finite-time bounds and convergence pairs (criteria 5, 7, 8)


@dataclass
class FiniteInput:
    t: object
    e: object
    rho0: DensityMatrix
    sigma0: DensityMatrix
    d0: float
    choi_norm: float
    pauli: object
    gen_t: object
    gen_e: object
    g_rho0: DensityMatrix
    g_sigma0: DensityMatrix
    seed: int


class FiniteTime(Workload):
    """Pair derivation, validation and trajectory checks on d=2 chains."""

    name = "finite_time"
    tag = 0x5F
    n_fixed = 48
    pool = 96

    def make_input(self, i):
        s = self.op_seed(i)
        t = random_channel(2, 4, derive_seed(s, 1))
        e = perturb_channel(t, 1e-2, derive_seed(s, 2))
        rho0 = random_density(2, derive_seed(s, 4))
        sigma0 = random_density(2, derive_seed(s, 5))
        p = SplitMix64(derive_seed(s, 7)).uniforms(3) * 0.3
        gen_t = random_generator(2, 2, derive_seed(s, 8), check=False)
        gen_e = perturb_generator(gen_t, 1e-2, derive_seed(s, 9))
        return FiniteInput(t, e, rho0, sigma0,
                           _trace_norm(rho0.matrix - sigma0.matrix),
                           choi_trace_norm(e.matrix - t.matrix, 2),
                           pauli_channel(*p), gen_t, gen_e,
                           random_density(2, derive_seed(s, 10)),
                           random_density(2, derive_seed(s, 11)),
                           derive_seed(s, 3))

    def run(self, inp):
        s = inp.seed
        ft = finite_time
        chi2 = ft.pair_chi2(inp.t, n_check=200, seed=s)
        sub = spectral.spectral_quantities(inp.t).subdominant_modulus
        eq10 = ft.pair_spectral_eq10(inp.t, mu=(1.0 + sub) / 2.0, n_check=200,
                                     seed=s)
        db = ft.pair_detailed_balance(inp.pauli, n_check=50, seed=s)
        rows_d = ft.discrete_trajectory_check(inp.t, inp.e, inp.rho0, inp.sigma0,
                                              200, chi2, restarts=4, seed=s,
                                              strict=False)
        gpair = ft.pair_chi2_generator(inp.gen_t, t_max=20.0, samples=100, seed=s)
        rows_c = ft.continuous_trajectory_check(inp.gen_t, inp.gen_e, inp.g_rho0,
                                                inp.g_sigma0, 20.0, 100, gpair,
                                                restarts=4, seed=s, strict=False)
        return (chi2, eq10, db, gpair), rows_d, rows_c

    def gate(self, inp, out):
        pairs, rows_d, rows_c = out
        for p in pairs:
            if not p.valid:
                return f"{p.recipe} {p.kind} pair failed validation"
        if len(rows_d) != 201 or len(rows_c) != 100:
            return "trajectory has the wrong number of rows"
        for r in rows_d + rows_c:
            if not r.slack >= -SLACK_TOL:
                return "trajectory row with slack below -1e-6"
        return None

    def estimate(self, inp, out):
        """||E - T||_{1->1} as used by the discrete check, read off row 1,
        over its Choi upper bound: the lower bound's share of the bracket.

        Normalising takes out the scale of the random perturbation, which
        varies from input to input far more than the ascent's quality.
        """
        row = out[1][1]
        if row.regime == "pre_threshold":
            dT = row.bound - inp.d0
        else:
            dT = (row.bound - row.K * row.rate * inp.d0) / row.K
        return dT / inp.choi_norm


# ---------------------------------------------------------------------------
# cold command-line processes


def cli_env() -> dict:
    """Child environment: the checkout's src first on the import path."""
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliInput:
    index: int
    argv: list


class CliCold(Workload):
    """One ``python -m qms.cli`` process per op, cycling over six commands.

    The channel files are the criterion-9 pair depolarizing(0.5) and
    depolarizing(0.6), so the per-command costs do not move with the seed;
    the seed reaches the commands through ``--seed`` (optimizer restarts,
    validation probes, positivity samples and the ensemble's channels).
    """

    name = "cli_cold"
    tag = 0xC1
    # Four whole cycles take longer than a 20 s run (three take about as
    # long), so every run makes exactly 24 ops: the op count, and with it
    # the tail's percentile, does not depend on how fast the machine was.
    n_fixed = 24
    pool = 0
    cycle = 6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.c1 = workdir / "t1.json"
        self.c2 = workdir / "t2.json"
        self.c1.write_text(dumps_json(channel_to_dict(depolarizing_channel(0.5))))
        self.c2.write_text(dumps_json(channel_to_dict(depolarizing_channel(0.6))))
        s = str(self.seed % 100_000)
        c1, c2 = self.c1.name, self.c2.name
        self.commands = [
            ["analyze", c1, "--format", "json", "--seed", s],
            ["validate", c1, "--format", "json", "--samples", "200", "--seed", s],
            ["compare", c1, c2, "--restarts", "8", "--seed", s, "--format", "json"],
            ["trajectory", c1, c2, "--steps", "25", "--pair", "auto-chi2",
             "--seed", s, "--format", "csv"],
            ["pairs", c1, "--seed", s, "--format", "json"],
            ["ensemble", "--dim", "2", "--count", "3", "--eps", "1e-2",
             "--seed", s, "--steps", "10", "--restarts", "4", "--format", "csv"],
        ]
        self.reference = {}
        self.env = cli_env()
        # Set by the traced run: ops then go through cli_runner.py, which
        # writes its spans here.
        self.span_dir = None

    def make_input(self, i):
        return CliInput(i, self.commands[i % self.cycle])

    def run(self, inp):
        """Returns (exit code, stdout, stderr, span file or None)."""
        if self.span_dir is None:
            spans = None
            argv = [sys.executable, "-m", "qms.cli"]
        else:
            spans = self.span_dir / f"op{inp.index}.json"
            argv = [sys.executable, str(BENCH_DIR / "cli_runner.py"), str(spans)]
        proc = subprocess.run(argv + inp.argv, cwd=self.workdir, env=self.env,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr, spans

    def gate(self, inp, out):
        code, stdout, stderr, _ = out
        if code != 0:
            tail_line = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"{inp.argv[0]} exited {code}: {' '.join(tail_line)[:120]}"
        ref = self.reference.setdefault(inp.argv[0], stdout)
        if stdout != ref:
            return f"{inp.argv[0]} output differs from its first run"
        return None

    def estimate(self, inp, out):
        if out[0] != 0 or inp.argv[0] not in ("analyze", "compare"):
            return None
        doc = json.loads(out[1])
        if inp.argv[0] == "analyze":
            return doc["condition_numbers"]["kappa_tau_z"]["value"]
        res = doc["result"]
        rep = res["condition_report"]
        return (rep["kappa_tau_z"]["value"] + rep["tau_t"]["value"]
                + res["norm_estimates"]["general"]
                + res["norm_estimates"]["hermitian"]) / 4.0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (QubitCondition, QuditCondition, FiniteTime, CliCold)}
