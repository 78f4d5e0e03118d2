"""qms benchmark: one workload, timed or traced, checked op by op.

Usage (from the root of a checkout):

    python3 bench/run.py --workload qubit_condition --seed 1 --seconds 20 --trace 0

Workloads: qubit_condition, qudit_condition, finite_time, cli_cold (see
bench/README.md).  ``qms`` is imported from this checkout's ``src``; the run
fails if it resolves anywhere else.  Ops run one at a time (closed loop,
one client).  With ``--trace 0`` the run measures for ``--seconds`` and
prints the end-to-end metrics; with ``--trace 1`` it runs the workload's
fixed op set under span wrappers and prints the per-layer metrics.  The
last line of stdout is the result object; the line before it holds the
details (environment, tail percentile, failure reasons, shares).  Both are
also written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock
import stats
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("qubit_condition", "qudit_condition", "finite_time", "cli_cold")
# Set-up is timed this many times per run (this process plus fresh ones);
# the median is reported.
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "op_ms_tail": "ms", "ok_frac": "frac", "estimate_mean": "1",
                    "peak_rss_mb": "MB"}
# Per-layer metrics added to tracing.summarize's by the traced run.
TRACE_EXTRA = ("import.qms_s", "import.modules", "trace.overhead_frac",
               "trace.op_s")


def pin_environment():
    """One BLAS thread and one core, for this process and its children.

    Superoperators here are at most 9x9 (d=3), so BLAS thread wake-ups
    only add noise on a small shared machine; the variables must be set
    before numpy is imported.  The single core makes the reference-speed
    probes (refclock) run on the core the measured code runs on.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, wrong qms, bad probe)."""


def import_checkout_qms():
    """Import qms from ROOT/src; return (module, start, end, modules added)."""
    if not (SRC / "qms" / "__init__.py").is_file():
        raise BenchError(f"no qms package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    before = len(sys.modules)
    start = time.perf_counter()
    import qms
    end = time.perf_counter()
    check_inside(qms.__file__)
    return qms, start, end, len(sys.modules) - before


def check_inside(path: str):
    if ROOT not in Path(path).resolve().parents:
        raise BenchError(f"qms resolved to {path}, outside the checkout {ROOT}")


def setup(name: str, seed: int):
    """Import qms and generate the workload's inputs; time both.

    The set-up time is returned at reference speed (see refclock).
    """
    ref = refclock.probe()
    qms, start, end, modules = import_checkout_qms()
    import workloads
    workdir = OUT_DIR / f"{name}-{seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[name](seed, workdir)
    inputs = wl.make_inputs(0, wl.pool)
    setup_s = time.perf_counter() - start
    setup_s *= refclock.scale(ref + refclock.probe())
    return qms, wl, inputs, setup_s, (start, end, modules)


def setup_probe(name: str, seed: int) -> dict:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    import workloads
    proc = subprocess.run(cmd, cwd=ROOT, env=workloads.cli_env(),
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    check_inside(doc["qms_file"])
    return doc


def blas_threads() -> dict:
    """Threads the bundled OpenBLAS libraries will use (best effort)."""
    import ctypes
    import glob

    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = int(fn())
                    break
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(qms) -> dict:
    import numpy
    import scipy
    return {"commit": git_commit(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "qms_file": qms.__file__}


def run_op(wl, inp):
    """Run one op; return (latency, output, failure reason or None)."""
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"[:160]
    latency = time.perf_counter() - start
    try:
        failure = wl.gate(inp, out)
    except Exception as exc:
        failure = f"gate raised {type(exc).__name__}: {exc}"[:160]
    return latency, out, failure


def timed_phase(wl, inputs, seconds: float):
    """Closed loop until ``seconds`` have passed and the fixed ops are done.

    Each op is bracketed by reference-kernel probes, and its latency is
    logged at reference speed; ``raw`` keeps the measured latencies.
    Inputs beyond the set-up pool are generated with the clock paused.
    """
    log = stats.OpLog()
    raw = []
    estimates = []
    paused = 0.0
    i = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds and i >= wl.n_fixed and i % wl.cycle == 0:
            break
        if i >= len(inputs):
            g0 = time.perf_counter()
            inputs.extend(wl.make_inputs(i, max(16, wl.cycle)))
            paused += time.perf_counter() - g0
        ref = refclock.probe()
        latency, out, failure = run_op(wl, inputs[i])
        ref += refclock.probe()
        raw.append(latency)
        log.record(latency * refclock.scale(ref), failure)
        if i < wl.n_fixed and failure is None:
            est = wl.estimate(inputs[i], out)
            if est is not None:
                estimates.append(est)
        i += 1
    return log, raw, estimates, time.perf_counter() - start - paused


def traced_phase(wl, inputs, import_span):
    """The fixed op set under span wrappers; returns (log, recorder, extra)."""
    rec = tracing.Recorder()
    log = stats.OpLog()
    extra = {"import_modules": 0}
    while len(inputs) < wl.n_fixed:
        inputs.extend(wl.make_inputs(len(inputs), 16))
    cli = wl.name == "cli_cold"
    if cli:
        wl.span_dir = wl.workdir / "spans"
        wl.span_dir.mkdir(parents=True, exist_ok=True)
    else:
        start, end, modules = import_span
        rec.add("import.qms", start, end)
        extra["import_modules"] = modules
        tracing.install(rec)
    for i in range(wl.n_fixed):
        rec.op = i
        latency, out, failure = run_op(wl, inputs[i])
        log.record(latency, failure)
        if cli and out is not None and out[3].is_file():
            doc = json.loads(out[3].read_text())
            check_inside(doc["qms_file"])
            rec.extend(doc["spans"], i)
            extra["import_modules"] = doc["modules"]
    return log, rec, extra


def purpose(name: str, m: dict, spans) -> dict:
    """Whether the trace shows the workload doing what it was chosen for."""
    if name == "qubit_condition":
        times = tracing.function_times(spans)
        target = "contraction.tau_exact_qubit"
        skip = tracing.ancestors_of(spans, target) | {target, "import.qms"}
        rival = max((v, k) for k, v in times.items() if k not in skip)
        return {"claim": "tau_exact_qubit has the largest function-level time "
                         "below its callers",
                "holds": times.get(target, 0.0) > rival[0],
                "runner_up": rival[1]}
    if name == "qudit_condition":
        return {"claim": "tau_exact_qubit is never called",
                "holds": m["contraction.tau_exact_qubit_calls"] == 0}
    if name == "finite_time":
        return {"claim": "tau is never called", "holds": m["contraction.tau_calls"] == 0}
    others = max((m[f"{layer}.self_s"], layer) for layer in tracing.LAYERS
                 if layer != "import")
    return {"claim": "import.qms_s is the largest share of op time",
            "holds": m["import.qms_s"] > others[0], "runner_up": others[1]}


def per_layer_metrics(name, log, rec, extra, overhead_per_span):
    spans = rec.spans
    m = tracing.summarize(spans)
    m["import.qms_s"] = tracing.outermost_time(spans, ("import.qms",))
    m["import.modules"] = extra["import_modules"]
    op_s = sum(log.latencies)
    traced_calls = sum(1 for s in spans if s[0] != "import.qms")
    cost = traced_calls * overhead_per_span
    m["trace.overhead_frac"] = cost / max(op_s - cost, 1e-9)
    m["trace.op_s"] = op_s
    # Shares of op time count only spans inside ops; in-process, the import
    # span belongs to set-up.
    inside = dict.fromkeys(tracing.LAYERS, 0.0)
    for s, self_s in zip(spans, tracing.self_times(spans)):
        layer = s[0].split(".", 1)[0]
        if s[4] >= 0 and layer in inside:
            inside[layer] += self_s
    shares = {layer: t / op_s for layer, t in inside.items()}
    detail = {"purpose": purpose(name, m, spans),
              "dominant_layer": max(shares, key=shares.get),
              "layer_shares": {k: round(v, 4) for k, v in
                               sorted(shares.items(), key=lambda kv: -kv[1])},
              "spans": len(spans), "span_overhead_s": overhead_per_span}
    return m, detail


def emit(name, seed, trace, detail, result):
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"result-{name}-{seed}-{'trace' if trace else 'timed'}.json"
    stem.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    pin_environment()

    try:
        qms, wl, inputs, setup_s, import_span = setup(args.workload, args.seed)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "qms_file": qms.__file__}))
            return 0
        return measure(args, qms, wl, inputs, setup_s, import_span)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        wl.close()


def measure(args, qms, wl, inputs, setup_s, import_span) -> int:
    detail = {"workload": args.workload, "seed": args.seed,
              "env": environment(qms), "n_fixed": wl.n_fixed}
    # One untimed op first, so lazy imports and first-call set-up inside the
    # library are not charged to the first timed op.
    run_op(wl, wl.make_input(10**6))

    if args.trace:
        overhead = tracing.span_overhead()
        log, rec, extra = traced_phase(wl, inputs, import_span)
        metrics, more = per_layer_metrics(args.workload, log, rec, extra, overhead)
        detail.update(more)
        OUT_DIR.mkdir(exist_ok=True)
        rec.dump(str(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"))
        units = {k: ("s" if k.endswith("_s") else "frac" if k.endswith("_frac")
                     else "count") for k in metrics}
    else:
        log, raw, estimates, wall = timed_phase(wl, inputs, args.seconds)
        rss_who = (resource.RUSAGE_CHILDREN if args.workload == "cli_cold"
                   else resource.RUSAGE_SELF)
        peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024.0
        samples = [setup_s] + [setup_probe(args.workload, args.seed)["setup_s"]
                               for _ in range(SETUP_SAMPLES - 1)]
        tail_s, pct, n = stats.tail(log.latencies)
        metrics = {
            "setup_s": statistics.median(samples),
            "ops_per_s": log.completed / sum(log.latencies),
            "op_ms_p50": 1000.0 * statistics.median(log.latencies),
            "op_ms_tail": 1000.0 * tail_s,
            "ok_frac": log.ok_frac,
            "estimate_mean": (sum(estimates) / len(estimates)) if estimates else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        detail.update({"op_ms_tail_percentile": pct, "op_samples": n,
                       "failed_frac": log.failed / log.attempted,
                       "estimate_ops": len(estimates), "timed_s": wall,
                       "setup_samples_s": samples,
                       "raw_ops_per_s": log.completed / wall,
                       "raw_op_ms_p50": 1000.0 * statistics.median(raw),
                       "raw_op_ms_tail": 1000.0 * stats.tail(raw)[0]})
    detail["failure_reasons"] = dict(log.reasons)
    result = {"correct": log.failed == 0, "attempted": log.attempted,
              "failed": log.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    emit(args.workload, args.seed, args.trace, detail, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
