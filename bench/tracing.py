"""Span recording around the public functions of ``qms`` and its kernels.

:func:`install` rebinds every public function and public method defined in
a ``qms.*`` module to a wrapper that records a span, in every ``qms``
module namespace that holds the function.  It does the same for the
numpy/scipy linear-algebra kernels and the scipy optimizers that ``qms``
calls through module attributes.  Spans are ``(name, start, end, parent,
op, work)`` tuples kept in memory; :func:`summarize` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from collections import defaultdict

# The layers, in report order: the qms modules, then import and the two
# third-party layers.
MODULE_LAYERS = ("rng", "linalg", "channels", "spectral", "contraction",
                 "stability", "finite_time", "ensembles", "serialize", "cli")
LAYERS = MODULE_LAYERS + ("import", "lapack", "scipy_optimize")

# Kernels wrapped as (module name, attribute).  qms uses scipy's eig for its
# eigensystems and numpy's for the rest, so both count as lapack.eig.
LAPACK = (("numpy.linalg", "eig"), ("numpy.linalg", "eigvals"),
          ("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
          ("numpy.linalg", "svd"), ("numpy.linalg", "solve"),
          ("numpy.linalg", "qr"), ("scipy.linalg", "eig"),
          ("scipy.linalg", "expm"))
OPTIMIZE = (("scipy.optimize", "minimize"), ("scipy.optimize", "minimize_scalar"))

# Span names whose work count is the number of matrices in the batch.
BATCHED = ("linalg.trace_norm_batch", "lapack.svd")

# Function-level times: inclusive time of the outermost spans of a group.
FUNC_TIMES = {
    "contraction.tau_exact_qubit_s": ("contraction.tau_exact_qubit",),
    "contraction.tau_s": ("contraction.tau",),
    "contraction.norm_1to1_s": ("contraction.norm_1to1",),
    "contraction.probe_inputs_s": ("contraction.probe_inputs",),
    "contraction.norm_lower_bound_probes_s": ("contraction.norm_lower_bound_probes",),
    "finite_time.validate_pair_s": ("finite_time.validate_pair_on_channel",
                                    "finite_time.validate_pair_on_generator"),
    "finite_time.trajectory_check_s": ("finite_time.discrete_trajectory_check",
                                       "finite_time.continuous_trajectory_check"),
    "spectral.minimal_polynomial_s": ("spectral.minimal_polynomial",),
    "spectral.fundamental_map_s": ("spectral.fundamental_map",),
}
FUNC_CALLS = ("contraction.tau_exact_qubit", "contraction.tau",
              "linalg.trace_norm_batch", "lapack.svd", "lapack.eig",
              "lapack.solve", "lapack.qr", "lapack.expm",
              "spectral.fixed_point_analysis", "spectral.spectral_quantities",
              "spectral.stationary_states")


def _batch_size(args, kwargs) -> int:
    a = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(a, "shape", ())
    n = 1
    for s in shape[:-2]:
        n *= s
    return n


class Recorder:
    """In-memory span store with a parent stack (single-threaded use)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        work = _batch_size if name in BATCHED else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            n = work(args, kwargs) if work else 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, n)

        return wrapper

    def add(self, name: str, start: float, end: float, n: int = 1):
        """Record a span measured outside a wrapper (e.g. ``import qms``)."""
        self.spans.append((name, start, end, -1, self.op, n))

    def extend(self, spans, op: int):
        """Append spans recorded by another process, re-indexing parents."""
        base = len(self.spans)
        for name, start, end, parent, _, n in spans:
            self.spans.append((name, start, end,
                               parent + base if parent >= 0 else -1, op, n))

    def dump(self, path: str):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "op", "work"), s))))
                fh.write("\n")


def install(rec: Recorder) -> list:
    """Wrap qms functions and methods and the kernels; return an undo list."""
    import numpy.linalg  # noqa: F401  (ensure the kernel modules exist)
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import qms.cli  # noqa: F401  (not imported by the package itself)

    undo = []
    mods = {name: m for name, m in sys.modules.items()
            if (name == "qms" or name.startswith("qms.")) and m is not None}
    replaced = {}
    for modname, mod in mods.items():
        layer = modname.split(".", 1)[1] if "." in modname else None
        if layer not in MODULE_LAYERS:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if isinstance(obj, types.FunctionType):
                replaced[id(obj)] = (obj, rec.wrap(obj, f"{layer}.{attr}"))
            elif isinstance(obj, type):
                for mname, meth in list(vars(obj).items()):
                    if mname.startswith("_") or not isinstance(meth, types.FunctionType):
                        continue
                    undo.append((obj, mname, meth))
                    setattr(obj, mname, rec.wrap(meth, f"{layer}.{attr}.{mname}"))
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    for layer, pairs in (("lapack", LAPACK), ("scipy_optimize", OPTIMIZE)):
        for modname, attr in pairs:
            mod = sys.modules[modname]
            fn = getattr(mod, attr)
            undo.append((mod, attr, fn))
            setattr(mod, attr, rec.wrap(fn, f"{layer}.{attr}"))
    return undo


def uninstall(undo: list):
    for owner, attr, obj in reversed(undo):
        setattr(owner, attr, obj)


def span_overhead(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop():
        return None

    wrapped = Recorder().wrap(noop, "calibrate")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter() - t0 - bare) / calls)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by child spans.

    Child intervals are clipped to the parent and merged where they
    overlap, so a child is never subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(end - start - covered, 0.0))
    return out


def outermost_time(spans, names) -> float:
    """Inclusive time of spans in ``names`` with no ancestor in ``names``."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


def function_times(spans) -> dict:
    """Outermost inclusive time of every span name."""
    out = defaultdict(float)
    for s in spans:
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            out[s[0]] += s[2] - s[1]
    return dict(out)


def ancestors_of(spans, name: str) -> set:
    out = set()
    for s in spans:
        if s[0] == name:
            p = s[3]
            while p >= 0:
                out.add(spans[p][0])
                p = spans[p][3]
    return out


def summarize(spans) -> dict:
    """Per-layer calls and self time plus the named function metrics."""
    selfs = self_times(spans)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    calls = defaultdict(int)
    work = defaultdict(int)
    for s, st in zip(spans, selfs):
        layer = s[0].split(".", 1)[0]
        if layer in LAYERS:
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += st
        calls[s[0]] += 1
        work[s[0]] += s[5]
    for metric, names in FUNC_TIMES.items():
        m[metric] = outermost_time(spans, names)
    for name in FUNC_CALLS:
        m[f"{name}_calls"] = calls[name]
    for name in BATCHED:
        m[f"{name}_mats"] = work[name]
    return m
