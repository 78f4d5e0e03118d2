"""Command-line interface.

Commands: validate, analyze, compare, trajectory, pairs, ensemble.
Exit codes: 0 all checks passed; 1 a bound or invariant violation was
detected (still reported); 2 usage or parse error (dim < 2 included);
3 numerical failure or internal error.
All output is deterministic for fixed inputs and seed.

At the top this module imports only what parsing and the shared helpers
need (``serialize``, ``channels``, ``errors`` and the restart default from
``rng``).  Each command imports the modules it runs when it runs, so
``validate`` never loads the estimators or the finite-time machinery.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

import numpy as np

from . import serialize
from .channels import (DensityMatrix, GeneratorMap, SuperOperator,
                       maximally_mixed, validate)
from .errors import (DomainError, NumericError, QmsError, SchemaError,
                     ValidationError)
from .rng import DEFAULT_RESTARTS


def _g12(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and math.isnan(x):
        return "-"
    return format(x, ".12g")


def _emit(args, doc: Optional[dict], text: Optional[str], code: int) -> int:
    """Write ``doc`` as JSON, or ``text`` for the other formats, to --out or
    stdout; return the exit code ``code``."""
    if args.format == "json":
        text = serialize.dumps_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _at_least(lo: int):
    def integer(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n
    return integer


def _tolerance(text: str) -> float:
    x = float(text)
    if not 0.0 <= x < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {x}")
    return x


def _decay_rate(text: str) -> float:
    x = float(text)
    if not 0.0 < x < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {x}")
    return x


def _common_flags(p: argparse.ArgumentParser, estimates: bool, rows: bool = False):
    """--format, --seed and --out; --tol and --restarts for the commands that
    check estimated bounds; csv output for the row-oriented commands."""
    p.add_argument("--format", default="text",
                   choices=["text", "json", "csv"] if rows else ["text", "json"],
                   help="output format")
    if estimates:
        p.add_argument("--tol", type=_tolerance, default=1e-6,
                       help="violation tolerance for slack checks (finite, >= 0)")
        p.add_argument("--restarts", type=_at_least(1), default=DEFAULT_RESTARTS,
                       help="multistart restarts for norm/contraction estimates "
                            "(>= 1; ignored where a qubit closed form applies)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help="write the report to a file")


def _load(path: str):
    obj = serialize.load_channel(path)
    if obj.dim < 2:
        raise ValidationError(f"{path}: dim must be >= 2, got {obj.dim}")
    return obj


def _load_super(path: str) -> SuperOperator:
    obj = _load(path)
    if isinstance(obj, GeneratorMap):
        raise ValidationError(
            f"{path}: expected a channel representation, got a generator")
    return obj


def _resolve_state(spec: str, dim: int) -> DensityMatrix:
    if spec == "maximally-mixed":
        return maximally_mixed(dim)
    if spec.startswith("file:"):
        rho = serialize.load_state(spec[5:])
        if rho.dim != dim:
            raise ValidationError(
                f"state has dim {rho.dim}, expected {dim}")
        return rho
    raise ValidationError(
        f"--state: expected maximally-mixed or file:PATH, got {spec!r}")


def _eigs_to_lists(w: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in w]


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    t = _load_super(args.input)
    report = validate(t, n_samples=args.samples, seed=args.seed)
    doc = {"input": args.input, "dim": t.dim, "label": t.label,
           "validation": report.to_dict()}
    lines = [f"validation of {args.input} (dim {t.dim})"]
    for key, val in sorted(doc["validation"].items()):
        if key != "positivity_witness":
            lines.append(f"  {key}: {_g12(val) if isinstance(val, float) else val}")
    ok = (report.trace_preserving and report.completely_positive
          and report.positivity == "no_counterexample")
    return _emit(args, doc, "\n".join(lines) + "\n", 0 if ok else 1)


def _cmd_analyze(args) -> int:
    from .spectral import fixed_point_analysis
    from .stability import condition_numbers
    t = _load_super(args.input)
    spec = fixed_point_analysis(t).spectral
    report = condition_numbers(t, restarts=args.restarts, seed=args.seed)
    cn = report.to_dict()
    tau_t = cn.pop("tau_t")
    del cn["dim"], cn["min_dist_to_one"]
    violations = 0
    kz = report.kappa_tau_z.value
    if math.isfinite(report.spectral_upper) and kz > report.spectral_upper + args.tol:
        violations += 1
    if report.kappa_tau_z.method == report.tau_t.method == "analytic":
        # only the exact closed forms make the lower bound checkable
        if report.spectral_lower > kz + args.tol:
            violations += 1
        if (report.kappa_contraction is not None
                and math.isfinite(report.kappa_contraction)
                and kz > report.kappa_contraction + args.tol):
            violations += 1
    doc = {
        "input": args.input,
        "dim": t.dim,
        "label": t.label,
        "spectrum": {
            "eigenvalues": _eigs_to_lists(spec.eigenvalues),
            "min_dist_to_one": spec.min_dist_to_one if math.isfinite(
                spec.min_dist_to_one) else None,
            "spectral_gap": spec.spectral_gap if math.isfinite(
                spec.spectral_gap) else None,
            "subdominant_modulus": spec.subdominant_modulus,
            "peripheral_count": spec.peripheral_count,
            "one_group_multiplicity": spec.one_group_multiplicity,
        },
        "tau": tau_t,
        "condition_numbers": cn,
        "violations": violations,
    }
    lines = [f"analysis of {args.input} (dim {t.dim})",
             "  eigenvalues: " + ", ".join(
                 f"{_g12(z.real)}{'+' if z.imag >= 0 else ''}{_g12(z.imag)}j"
                 for z in spec.eigenvalues)]
    for key in ("min_dist_to_one", "spectral_gap", "subdominant_modulus"):
        lines.append(f"  {key}: {_g12(getattr(spec, key))}")
    lines += [f"  tau(T): {_g12(report.tau_t.value)}",
              f"  kappa = tau(Z): {_g12(kz)}",
              f"  (1 - tau(T))^-1: {_g12(report.kappa_contraction)}"
              + (f"  [{report.kappa_contraction_reason}]"
                 if report.kappa_contraction_reason else ""),
              f"  spectral lower: {_g12(report.spectral_lower)}",
              f"  spectral upper: {_g12(report.spectral_upper)}",
              f"  violations: {violations}"]
    return _emit(args, doc, "\n".join(lines) + "\n", 1 if violations else 0)


def _cmd_compare(args) -> int:
    from .spectral import fixed_point_analysis
    from .stability import fixed_point_perturbation
    t1 = _load_super(args.input1)
    t2 = _load_super(args.input2)
    if t1.dim != t2.dim:
        raise ValidationError(f"dims differ: {t1.dim} vs {t2.dim}")
    requested = _resolve_state(args.state, t2.dim)
    # project the requested state onto the stationary subspace of T2 so the
    # comparison is made at an actual fixed point
    rho2 = fixed_point_analysis(t2).limit_state(requested.matrix)
    projection_shift = float(np.linalg.norm(rho2.matrix - requested.matrix))

    outcome = fixed_point_perturbation(t1, t2, rho2, restarts=args.restarts,
                                       seed=args.seed)
    doc = {"input1": args.input1, "input2": args.input2,
           "state": args.state, "projection_shift": projection_shift,
           "result": outcome.to_dict()}
    violation = (outcome.bound_value - outcome.actual_distance < -args.tol
                 or outcome.identity_residual > 1e-8)
    r = outcome
    lines = [f"fixed-point perturbation: {args.input1} vs {args.input2}",
             f"  actual distance ||rho1 - rho2||_1: {_g12(r.actual_distance)}",
             f"  bound kappa * ||T1 - T2||: {_g12(r.bound_value)}",
             f"  slack: {_g12(r.bound_value - r.actual_distance)}",
             f"  identity residual: {_g12(r.identity_residual)}"]
    for name, val in sorted(r.bounds.items()):
        lines.append(f"  bound[{name}]: {_g12(val)}")
    return _emit(args, doc, "\n".join(lines) + "\n", 1 if violation else 0)


def _derive_pair(spec: str, obj, steps: int, t_max: float, seed: int):
    """The convergence pair that ``spec`` names for ``obj``: a generator
    takes the continuous recipes and horizon, a channel the discrete ones."""
    from .finite_time import (pair_chi2, pair_chi2_generator,
                              pair_detailed_balance,
                              pair_detailed_balance_generator,
                              pair_spectral_eq10, user_pair)
    continuous = isinstance(obj, GeneratorMap)
    horizon = dict(t_max=t_max, samples=steps) if continuous else dict(n_check=steps)
    recipes = {"auto-chi2": (pair_chi2, pair_chi2_generator),
               "auto-db": (pair_detailed_balance,
                           pair_detailed_balance_generator)}
    if spec in recipes:
        return recipes[spec][continuous](obj, seed=seed, **horizon)
    if spec.startswith("auto-eq10:"):
        try:
            mu = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"--pair: cannot parse mu in {spec!r}")
        if continuous:
            raise ValidationError("--pair auto-eq10 applies to discrete chains only")
        return pair_spectral_eq10(obj, mu, seed=seed, **horizon)
    try:
        K, rate = map(float, spec.split(":"))
    except ValueError:
        raise ValidationError(f"--pair: expected auto-chi2 | auto-db | "
                              f"auto-eq10:MU | K:MU, got {spec!r}")
    return user_pair(K, rate, "continuous" if continuous else "discrete")


def _emit_reports(reports, args, header: dict) -> int:
    bad = [r for r in reports if r.slack < -args.tol]
    errors = [r for r in reports if r.regime == "error"]
    code = 1 if bad else 3 if errors else 0
    if args.format == "json":
        rows = [serialize.report_to_dict(r) for r in reports]
        return _emit(args, dict(header, rows=rows, violations=len(bad)), None, code)
    if args.format == "csv":
        return _emit(args, None, serialize.reports_to_csv(reports), code)
    lines = [", ".join(f"{k}={v}" for k, v in header.items()),
             f"{'n_or_t':>10} {'exact':>18} {'bound':>18} {'slack':>18} regime"]
    for r in reports:
        lines.append(f"{_g12(r.n_or_t):>10} {_g12(r.exact):>18} "
                     f"{_g12(r.bound):>18} {_g12(r.slack):>18} {r.regime}"
                     + (f"  {r.error}" if r.error else ""))
    lines.append(f"violations: {len(bad)}")
    return _emit(args, None, "\n".join(lines) + "\n", code)


def _cmd_trajectory(args) -> int:
    from .finite_time import (continuous_trajectory_check,
                              discrete_trajectory_check)
    obj_t = _load(args.input1)
    obj_e = _load(args.input2)
    continuous = isinstance(obj_t, GeneratorMap)
    if continuous != isinstance(obj_e, GeneratorMap):
        raise ValidationError(
            "trajectory inputs must both be channels or both generators")
    rho0 = _resolve_state(args.state, obj_t.dim)
    pair = _derive_pair(args.pair, obj_t, args.steps, args.t_max, args.seed)
    if continuous:
        reports = continuous_trajectory_check(
            obj_t, obj_e, rho0, rho0, args.t_max, args.steps, pair,
            restarts=args.restarts, seed=args.seed, strict=False)
    else:
        reports = discrete_trajectory_check(
            obj_t, obj_e, rho0, rho0, args.steps, pair,
            restarts=args.restarts, seed=args.seed, strict=False)
    header = {"command": "trajectory", "mode": pair.kind, "pair": args.pair,
              "K": _g12(pair.K), "rate": _g12(pair.rate)}
    return _emit_reports(reports, args, header)


def _cmd_pairs(args) -> int:
    from .finite_time import pair_chi2, pair_detailed_balance, pair_spectral_eq10
    from .spectral import fixed_point_analysis
    t = _load_super(args.input)
    results: dict[str, object] = {}
    exit_code = 0
    spec = fixed_point_analysis(t).spectral
    default_mu = (args.mu if args.mu is not None
                  else (1.0 + spec.subdominant_modulus) / 2.0)
    recipes = {
        "chi2": lambda: pair_chi2(t, n_check=args.steps, seed=args.seed),
        "detailed_balance": lambda: pair_detailed_balance(
            t, n_check=args.steps, seed=args.seed),
        "spectral_eq10": lambda: pair_spectral_eq10(
            t, default_mu, n_check=args.steps, seed=args.seed),
    }
    for name, make in recipes.items():
        try:
            pair = make()
            results[name] = pair.to_dict()
            if not pair.valid:
                exit_code = 1
        except QmsError as exc:
            results[name] = {"error": f"{type(exc).__name__}: {exc}"}
    doc = {"input": args.input, "dim": t.dim, "mu_for_eq10": default_mu,
           "pairs": results}
    lines = [f"convergence pairs for {args.input}"]
    for name, val in results.items():
        if "error" in val:
            lines.append(f"  {name}: {val['error']}")
        else:
            lines.append(f"  {name}: K={_g12(val['K'])} rate={_g12(val['rate'])} "
                         f"valid={val['valid']} checked_to={_g12(val['validity_checked_to'])}")
    return _emit(args, doc, "\n".join(lines) + "\n", exit_code)


def _cmd_ensemble(args) -> int:
    from .ensembles import EnsembleConfig, sweep
    config = EnsembleConfig(dim=args.dim, count=args.count,
                            master_seed=args.seed, kraus_rank=args.kraus_rank,
                            perturbation_eps=args.eps, mode=args.mode)
    reports = sweep(config, steps=args.steps, restarts=args.restarts,
                    t_max=args.t_max)
    header = {"command": "ensemble", "dim": args.dim, "count": args.count,
              "mode": args.mode, "eps": _g12(args.eps), "seed": args.seed}
    return _emit_reports(reports, args, header)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qms",
        description="Perturbation and condition-number bounds for fixed "
                    "points of quantum Markov processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural checks on a channel file")
    p.add_argument("input")
    p.add_argument("--samples", type=int, default=1000,
                   help="Haar samples for the positivity search")
    _common_flags(p, estimates=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="spectrum, tau and condition numbers")
    p.add_argument("input")
    _common_flags(p, estimates=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="fixed-point perturbation bound for two channels")
    p.add_argument("input1")
    p.add_argument("input2")
    p.add_argument("--state", default="maximally-mixed",
                   help="maximally-mixed or file:PATH; projected onto the "
                        "stationary subspace of the second channel")
    _common_flags(p, estimates=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("trajectory", help="finite-time bound along simulated evolutions")
    p.add_argument("input1", help="reference channel or generator")
    p.add_argument("input2", help="perturbed channel or generator")
    p.add_argument("--steps", type=_at_least(0), default=50)
    p.add_argument("--t-max", type=float, default=10.0, dest="t_max")
    p.add_argument("--pair", default="auto-chi2",
                   help="auto-chi2 | auto-db | auto-eq10:MU | K:MU")
    p.add_argument("--state", default="maximally-mixed")
    _common_flags(p, estimates=True, rows=True)
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("pairs", help="derive exponential convergence pairs")
    p.add_argument("input")
    p.add_argument("--steps", type=_at_least(0), default=50,
                   help="empirical validation horizon")
    p.add_argument("--mu", type=_decay_rate, default=None,
                   help="decay rate for the spectral recipe "
                        "(default: halfway between subdominant modulus and 1)")
    _common_flags(p, estimates=False)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("ensemble", help="random sweep with bound records")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--kraus-rank", type=int, default=None, dest="kraus_rank")
    p.add_argument("--mode", default="discrete", choices=["discrete", "continuous"])
    p.add_argument("--steps", type=_at_least(0), default=50)
    p.add_argument("--t-max", type=float, default=10.0, dest="t_max")
    _common_flags(p, estimates=True, rows=True)
    p.set_defaults(func=_cmd_ensemble)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (SchemaError, ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect must not exit 1, which means a violation
        import traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
