"""Self-tests of the benchmark harness: ``python3 -m pytest -q bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def span(name, start, end, parent=-1, op=0, work=1):
    return (name, start, end, parent, op, work)


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_children():
    spans = [span("stability.a", 0.0, 10.0),
             span("contraction.b", 1.0, 4.0, parent=0),
             span("linalg.c", 2.0, 3.0, parent=1),
             span("lapack.svd", 5.0, 6.5, parent=0)]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_merges_overlap_and_clips_to_parent():
    # Overlapping children count once; a child running past its parent's
    # end only covers the part inside the parent.
    spans = [span("cli.main", 0.0, 10.0),
             span("import.qms", 2.0, 5.0, parent=0),
             span("import.qms", 4.0, 6.0, parent=0),
             span("rng.x", 9.0, 12.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_totals_and_outermost_time():
    spans = [span("contraction.tau", 0.0, 4.0),
             span("contraction.tau_exact_qubit", 0.5, 3.5, parent=0),
             span("linalg.trace_norm_batch", 1.0, 2.0, parent=1, work=7),
             span("contraction.tau", 5.0, 6.0),
             span("contraction.tau", 5.2, 5.8, parent=3)]     # recursive call
    m = tracing.summarize(spans)
    assert m["contraction.calls"] == 4
    assert m["contraction.self_s"] == pytest.approx(1.0 + 2.0 + 0.4 + 0.6)
    assert m["linalg.self_s"] == pytest.approx(1.0)
    assert m["contraction.tau_s"] == pytest.approx(4.0 + 1.0)   # outermost only
    assert m["contraction.tau_calls"] == 3
    assert m["linalg.trace_norm_batch_mats"] == 7
    assert m["lapack.svd_calls"] == 0 and m["cli.self_s"] == 0.0
    assert tracing.function_times(spans)["contraction.tau"] == pytest.approx(5.0)
    assert tracing.ancestors_of(spans, "linalg.trace_norm_batch") == {
        "contraction.tau", "contraction.tau_exact_qubit"}


def test_extend_reindexes_parents():
    rec = tracing.Recorder()
    rec.add("import.qms", 0.0, 1.0)
    rec.extend([["import.qms", 0.0, 1.0, -1, 0, 1],
                ["cli.main", 1.0, 2.0, -1, 0, 1],
                ["serialize.load_channel", 1.1, 1.2, 1, 0, 1]], op=3)
    assert rec.spans[3] == ("serialize.load_channel", 1.1, 1.2, 2, 3, 1)


# ---------------------------------------------------------------------------
# tail percentile


def test_tail_leaves_ten_samples_beyond():
    xs = list(range(100, 0, -1))
    value, pct, n = stats.tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in xs if x > value) == stats.TAIL_BEYOND


def test_tail_with_eleven_and_with_too_few_samples():
    assert stats.tail(range(11)) == (0, pytest.approx(100 / 11), 11)
    value, pct, n = stats.tail([3.0, 1.0, 2.0])
    assert (value, n) == (1.0, 3) and pct == pytest.approx(100 / 3)
    with pytest.raises(ValueError):
        stats.tail([])


# ---------------------------------------------------------------------------
# failure accounting


class _Stub:
    def __init__(self, result=None, exc=None, verdict=None):
        self.result, self.exc, self.verdict = result, exc, verdict

    def run(self, inp):
        if self.exc:
            raise self.exc
        return self.result

    def gate(self, inp, out):
        return self.verdict


def test_failure_accounting():
    from qms.errors import DomainError
    log = stats.OpLog()
    for wl in (_Stub(result=1),
               _Stub(exc=DomainError("chi2 recipe yields mu = 1")),
               _Stub(result=2, verdict="identity residual above 1e-8"),
               _Stub(result=3)):
        latency, out, failure = run.run_op(wl, None)
        assert latency >= 0.0
        log.record(latency, failure)
    assert (log.attempted, log.failed, log.completed) == (4, 2, 2)
    assert log.ok_frac == 0.5
    assert log.reasons == {"DomainError: chi2 recipe yields mu = 1": 1,
                           "identity residual above 1e-8": 1}


def test_condition_gate_flags_a_violated_bound():
    import workloads
    from types import SimpleNamespace as NS
    est = NS(value=2.0)
    rep = NS(kappa_tau_z=est, tau_t=NS(value=0.5), unique_stationary=True,
             min_dist_to_one=0.5, spectral_lower=2.0, spectral_upper=300.0)
    ok = NS(identity_residual=1e-12, bound_value=1.0, actual_distance=0.5,
            condition_report=rep)
    wl = workloads.QubitCondition.__new__(workloads.QubitCondition)
    assert wl.gate(None, [ok, ok]) is None
    bad = NS(**{**vars(ok), "identity_residual": 1e-6})
    assert "identity" in wl.gate(None, [ok, bad])
    assert "bound" in wl.gate(None, [NS(**{**vars(ok), "actual_distance": 1.1})])
    rep.tau_t = NS(value=0.6)             # 1/(1 - 0.6) = 2.5 >= 2: still fine
    assert wl.gate(None, [ok]) is None
    rep.kappa_tau_z = NS(value=1.9)       # below the spectral lower bound 2.0
    assert "sandwich" in wl.gate(None, [ok])


# ---------------------------------------------------------------------------
# wrappers on the real package


def test_install_wraps_every_namespace_and_uninstalls():
    import numpy as np
    import qms
    from qms import stability, spectral, finite_time, contraction
    orig = spectral.fixed_point_analysis
    orig_svd = np.linalg.svd
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert stability.fixed_point_analysis is spectral.fixed_point_analysis
        assert finite_time.fixed_point_analysis is spectral.fixed_point_analysis
        assert spectral.fixed_point_analysis is not orig
        assert qms.condition_numbers is stability.condition_numbers
        rec.op = 7
        t = qms.depolarizing_channel(0.5)
        contraction.norm_1to1(t, restarts=2, seed=0)
        stability.condition_numbers(t, restarts=2)
        np.linalg.svd(np.eye(2)[None].repeat(3, axis=0), compute_uv=False)
    finally:
        tracing.uninstall(undo)
    assert spectral.fixed_point_analysis is orig
    assert stability.fixed_point_analysis is orig
    assert np.linalg.svd is orig_svd
    names = [s[0] for s in rec.spans]
    assert "contraction.norm_1to1" in names
    assert "contraction._run_multistart" not in names
    assert "rng.SplitMix64.normals" in names
    assert names.count("spectral.fixed_point_analysis") == 1
    assert {s[4] for s in rec.spans} == {7}
    m = tracing.summarize(rec.spans)
    assert m["contraction.tau_exact_qubit_calls"] == 2
    assert m["scipy_optimize.calls"] > 0
    assert m["lapack.svd_mats"] >= 3
    root = [s for s in rec.spans if s[0] == "stability.condition_numbers"][0]
    assert root[3] == -1


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints


def test_benchmark_json_names_match_the_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in doc["per_layer"]}
    produced = set(tracing.summarize([])) | set(run.TRACE_EXTRA)
    assert per_layer == produced
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in doc["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    import workloads
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert doc["paths"] == ["bench"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails quietly."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "cli_cold", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no qms package" in proc.stderr


def test_choi_trace_norm_matches_its_definition():
    import numpy as np
    import workloads
    from qms.ensembles import random_channel
    d = 3
    m = random_channel(d, 4, 5).matrix - random_channel(d, 2, 6).matrix
    j = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e = np.zeros((d, d))
            e[a, b] = 1.0
            j += np.kron(e, (m @ e.T.reshape(-1)).reshape(d, d).T)
    expected = np.linalg.svd(j, compute_uv=False).sum()
    assert workloads.choi_trace_norm(m, d) == pytest.approx(expected, rel=1e-12)
