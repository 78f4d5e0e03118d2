import numpy as np
import pytest

from qms.channels import SuperOperator
from qms.errors import DimensionError, SpectralResolutionError, ValidationError
from qms.linalg import (apply_batch, as_matrix, matrix_exp, sandwich_matrix,
                        spectral_norm, trace_norm, trace_norm_batch, unvec, vec)
from qms.spectral import fixed_point_analysis, spectral_quantities
from qms.rng import SplitMix64, derive_seed


def random_unitary(d, seed):
    g = SplitMix64(seed).complex_normals((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("d", [2, 3])
def test_apply_batch_over_a_stack_of_maps(d):
    gen = SplitMix64(derive_seed(5, d))
    maps = gen.complex_normals((4, d * d, d * d))
    mats = gen.complex_normals((6, d, d))
    stacked = apply_batch(maps, mats)
    assert stacked.shape == (4, 6, d, d)
    for m, images in zip(maps, stacked):
        single = apply_batch(m, mats)
        assert np.abs(images - single).max() <= 1e-15 * np.abs(single).max()
        # one map on one matrix is the matrix-vector product, bit for bit
        for x in mats:
            assert np.array_equal(apply_batch(m, x), unvec(m @ vec(x), d))
    # so is a stack of powers on one matrix, as a trajectory evolves a state
    blocks = np.stack([np.linalg.matrix_power(maps[0], k) for k in range(5)])
    for x in mats:
        assert np.array_equal(
            apply_batch(blocks, x),
            (blocks @ vec(x)).reshape(5, d, d).transpose(0, 2, 1))


def test_trace_norm_identity():
    assert trace_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-12)


def test_trace_norm_diag_sign():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_projector_minus_mixed():
    # eigenvalues of |psi><psi| - I/2 are +-1/2 for any unit psi
    for seed in range(5):
        psi = SplitMix64(seed).complex_normals(2)
        psi /= np.linalg.norm(psi)
        m = np.outer(psi, psi.conj()) - np.eye(2) / 2
        assert trace_norm(m) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_rejects_non_square():
    with pytest.raises(DimensionError):
        trace_norm(np.ones((2, 3)))


def test_trace_norm_rejects_nan():
    m = np.eye(2, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValidationError):
        trace_norm(m)


def test_trace_norm_unitary_invariance():
    for seed in range(6):
        m = SplitMix64(derive_seed(seed, 1)).complex_normals((3, 3))
        u = random_unitary(3, derive_seed(seed, 2))
        v = random_unitary(3, derive_seed(seed, 3))
        assert trace_norm(u @ m @ v) == pytest.approx(trace_norm(m), abs=1e-10)


def test_trace_norm_triangle_inequality():
    for seed in range(6):
        a = SplitMix64(derive_seed(seed, 4)).complex_normals((4, 4))
        b = SplitMix64(derive_seed(seed, 5)).complex_normals((4, 4))
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_trace_norm_batch_matches_single():
    mats = SplitMix64(3).complex_normals((7, 2, 2))
    batch = trace_norm_batch(mats)
    for i in range(7):
        assert batch[i] == pytest.approx(trace_norm(mats[i]), abs=1e-12)
    mats3 = SplitMix64(4).complex_normals((5, 3, 3))
    batch3 = trace_norm_batch(mats3)
    for i in range(5):
        assert batch3[i] == pytest.approx(trace_norm(mats3[i]), abs=1e-12)


def test_eig_sorted_by_modulus():
    # nonincreasing modulus, ties by real then imaginary part
    m = np.diag([0.5, 2.0, 1.0, -2.0]).astype(complex)
    w = spectral_quantities(SuperOperator(2, m)).eigenvalues
    assert np.array_equal(w, [-2.0, 2.0, 1.0, 0.5])


def test_eig_depolarizing_superoperator():
    from qms.channels import depolarizing_channel
    w = spectral_quantities(depolarizing_channel(0.5)).eigenvalues
    assert np.allclose(np.abs(w), [1.0, 0.5, 0.5, 0.5], atol=1e-12)


def test_eig_jordan_block_flagged_degenerate():
    # a Jordan block at 1: two eigenvalues at 1 but a one-dimensional kernel
    m = np.diag([1.0, 1.0, 0.5, 0.2]).astype(complex)
    m[0, 1] = 1.0
    with pytest.raises(SpectralResolutionError, match="defective"):
        fixed_point_analysis(SuperOperator(2, m))


def test_matrix_exp_zero_and_diagonal():
    assert np.allclose(matrix_exp(np.zeros((3, 3)), 7.0), np.eye(3))
    assert matrix_exp(np.diag([-1.0]), 1.0)[0, 0] == pytest.approx(np.exp(-1.0),
                                                                   rel=1e-12)


def test_matrix_exp_depolarizing_generator_series():
    # e^{tL}(X) = e^{-t} X + (1 - e^{-t}) tr[X] I/2, verified by summation
    from qms.channels import depolarizing_channel, depolarizing_generator
    gen = depolarizing_generator(1.0).matrix
    got = matrix_exp(gen, 1.0)
    series = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 60):
        term = term @ gen / k
        series += term
    assert np.abs(got - series).max() <= 1e-13
    closed = depolarizing_channel(1.0 - np.exp(-1.0)).matrix
    assert np.abs(got - closed).max() <= 1e-12


def test_matrix_exp_semigroup_property():
    m = SplitMix64(9).complex_normals((4, 4))
    m = m / np.linalg.norm(m, 2)
    lhs = matrix_exp(m, 0.7 + 1.1)
    rhs = matrix_exp(m, 0.7) @ matrix_exp(m, 1.1)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_matrix_exp_overflow_raises():
    from qms.errors import NumericError
    with pytest.raises(NumericError):
        matrix_exp(np.diag([1.0]), 1000.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_matrix_exp_matches_scipy_oracle(d):
    import scipy.linalg
    from qms.ensembles import random_generator
    from qms.linalg import _THETA13
    # Higham's theta_3..theta_9, where scipy switches the Pade degree, and
    # theta_13 times 1, 2 and 8, where the number of squarings changes
    thetas = [1.495585217958292e-2, 2.539398330063230e-1,
              9.504178996162932e-1, 2.097847961257068e0,
              _THETA13, 2 * _THETA13, 8 * _THETA13]
    for seed in range(4):
        gen = random_generator(d, 2, derive_seed(seed, d), check=False).matrix
        # 1-norms just below and above each, and 3/4 of each
        norm = np.abs(gen).sum(axis=0).max()
        edges = [theta * f / norm for theta in thetas
                 for f in (1 - 1e-9, 1 + 1e-9, 0.75)]
        for t in (1e-3, 0.1, 1.0, 20 / 99, 20.0, *edges):
            want = scipy.linalg.expm(t * gen)
            got = matrix_exp(gen, t)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_vec_column_stacking():
    assert np.allclose(vec(np.array([[1, 2], [3, 4]])), [1, 3, 2, 4])


def test_unvec_roundtrip():
    x = SplitMix64(2).complex_normals((3, 3))
    assert np.allclose(unvec(vec(x), 3), x)


def test_kron_vec_identity():
    # kron(A^T, B) vec(X) = vec(B X A)
    a = SplitMix64(11).complex_normals((3, 3))
    b = SplitMix64(12).complex_normals((3, 3))
    x = SplitMix64(13).complex_normals((3, 3))
    assert np.allclose(np.kron(a.T, b) @ vec(x), vec(b @ x @ a), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_sandwich_matrix_is_kron_bit_for_bit(d):
    gen = SplitMix64(derive_seed(21, d))
    a = gen.complex_normals((5, d, d))
    b = gen.complex_normals((5, d, d))
    x = gen.complex_normals((d, d))
    stacked = sandwich_matrix(a, b)
    assert stacked.shape == (5, d * d, d * d)
    for ak, bk, mk in zip(a, b, stacked):
        assert np.array_equal(mk, np.kron(bk.T, ak))
        assert np.allclose(mk @ vec(x), vec(ak @ x @ bk), atol=1e-12)
    # leading axes broadcast: one B against every A
    assert np.array_equal(sandwich_matrix(a, b[0]),
                          [np.kron(b[0].T, ak) for ak in a])


def test_spectral_norm_is_numpy_2_norm_exactly():
    gen = SplitMix64(31)
    g = gen.complex_normals((4, 2))
    for m in (gen.complex_normals((4, 4)), gen.complex_normals((9, 9)),
              g @ g.conj().T,                              # rank 2 of 4
              np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5]),  # real, rank 1
              np.zeros((3, 3))):
        assert spectral_norm(m) == np.linalg.norm(m.astype(complex), 2)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.5), complex(np.inf, 0.5),
                                 complex(0.5, np.nan), complex(0.5, -np.inf)])
def test_as_matrix_rejects_non_finite_real_and_imaginary_parts(bad):
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        as_matrix(m)


def _splitmix64_reference(seed, n):
    """The published SplitMix64 recurrence in Python integers."""
    mask, out = (1 << 64) - 1, []
    for _ in range(n):
        seed = (seed + 0x9E3779B97F4A7C15) & mask
        z = seed
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_next_uint64_is_the_splitmix64_recurrence():
    seeds = [0, 1, 7, 2**63, 2**64 - 1]
    for seed in seeds:
        gen = SplitMix64(seed)
        want = _splitmix64_reference(seed, 9)
        assert gen.next_uint64(4).tolist() + gen.next_uint64(5).tolist() == want
    streams = SplitMix64(np.array(seeds, dtype=np.uint64)).next_uint64(6)
    assert streams.tolist() == [_splitmix64_reference(s, 6) for s in seeds]


def _normals_two_draws(gen, n):
    """Box-Muller from the radius and angle uniforms taken as two draws."""
    half = (n + 1) // 2
    u1 = ((gen.next_uint64(half) >> np.uint64(11)).astype(float) + 1.0) * 2.0**-53
    u2 = (gen.next_uint64(half) >> np.uint64(11)).astype(float) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                          r * np.sin(2.0 * np.pi * u2)], axis=-1)
    return out[..., :n]


@pytest.mark.parametrize("seed", [7, np.array([3, 7, 2**64 - 1], dtype=np.uint64)])
def test_normals_are_the_two_draw_construction(seed):
    for n in (0, 1, 2, 5, 8):
        one, two = SplitMix64(seed), SplitMix64(seed)
        assert np.array_equal(one.normals(n), _normals_two_draws(two, n))
        # both leave the stream at the same state
        assert np.array_equal(one.next_uint64(3), two.next_uint64(3))


def _raw_draw_offenders(source):
    """Lines of ``source`` that call the stream's raw ``next_uint64`` or
    ``uniforms`` instead of its Gaussian draws."""
    import ast
    return [f"{node.lineno}: {node.func.attr}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("next_uint64", "uniforms")]


def test_every_draw_outside_rng_goes_through_the_gaussian_samplers():
    # one sampler: a module that turns raw uint64s or uniforms into its
    # own normals re-implements rng.SplitMix64.normals
    from pathlib import Path

    import qms

    sources = sorted(Path(qms.__file__).parent.glob("*.py"))
    assert len(sources) >= 12
    offenders = [f"{path.name}:{line}" for path in sources if path.name != "rng.py"
                 for line in _raw_draw_offenders(path.read_text())]
    assert offenders == []


def test_raw_draw_guard_catches_a_hand_rolled_box_muller():
    # the probe construction as it once stood, replaying Box-Muller by hand
    flagged = _raw_draw_offenders(
        "def probe_inputs(d, seed=0):\n"
        "    bits = SplitMix64(derive_seed(seed, 0xA11CE)).next_uint64(6 * PROBE_DRAWS * d)\n"
        "    bits = (bits >> np.uint64(11)).reshape(PROBE_DRAWS, 3, 2, d).astype(np.float64)\n"
        "    u1 = (bits[:, :, 0] + 1.0) * 2.0**-53\n"
        "    p = gen.uniforms(3) * 0.3\n")
    assert flagged == ["2: next_uint64", "5: uniforms"]
    assert _raw_draw_offenders(
        "z = SplitMix64(seed).complex_normals((PROBE_DRAWS, 3, d))\n"
        "x = gen.normals(2 * k * d)\n") == []


def test_kron_and_spectral_norm_live_only_in_linalg():
    # one superoperator assembly and one spectral norm: any np.kron call or
    # np.linalg.norm(., 2) in qms outside linalg.py is a second path
    import ast
    from pathlib import Path

    import qms

    offenders = []
    sources = sorted(Path(qms.__file__).parent.glob("*.py"))
    assert len(sources) >= 12
    for path in sources:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
            if name.endswith("kron") or (
                    name.endswith("linalg.norm")
                    and any(isinstance(o, ast.Constant) and o.value == 2
                            for o in ords)):
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_unvec_dimension_error():
    with pytest.raises(DimensionError):
        unvec(np.arange(5), 2)


# ---------------------------------------------------------------------------
# the fixed-point projector against a scipy oracle (scipy is a test-only
# dependency; qms itself never imports it)


def _scipy_eigensystem(m):
    """Eigenvalues with right and left vectors from
    ``scipy.linalg.eig(left=True)``, sorted as qms sorts them."""
    import scipy.linalg
    w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    order = np.lexsort((w.imag, w.real, -np.abs(w)))
    return w[order], vr[:, order], vl[:, order]


def _oracle_maps():
    from qms.channels import from_kraus, from_stochastic, identity_channel
    from qms.ensembles import random_channel
    maps = {f"random_d{d}_r{r}_s{s}": random_channel(d, r, s)
            for d in (2, 3, 4) for s in range(3) for r in (1, 2, d * d)}
    maps["three_cycle"] = from_stochastic([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    maps["diagonal_unitary"] = from_kraus(
        [np.diag(np.exp(1j * np.array([0.0, 0.7, 1.9])))])
    maps["identity_d3"] = identity_channel(3)
    jordan = np.diag([1.0, 0.5, 0.5, 0.2]).astype(complex)
    jordan[1, 2] = 1.0
    maps["jordan_at_half"] = SuperOperator(2, jordan)
    return maps


ORACLE_MAPS = _oracle_maps()


@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
def test_eig_projector_matches_scipy_oracle(name):
    from qms.spectral import TOL_FIX
    t = ORACLE_MAPS[name]
    w, vr, vl = _scipy_eigensystem(t.matrix)
    analysis = fixed_point_analysis(t)
    assert np.abs(analysis.spectral.eigenvalues - w).max() <= 1e-12
    ones = np.nonzero(np.abs(w - 1.0) <= TOL_FIX)[0]
    r1, l1 = vr[:, ones], vl[:, ones]
    oracle = r1 @ np.linalg.solve(l1.conj().T @ r1, l1.conj().T)
    assert np.abs(analysis.projector.matrix - oracle).max() <= 1e-12


def test_eig_matches_left_vectors_across_equal_modulus_reorderings():
    # peripheral spectra skip the Cesaro cross-check, so check the
    # projector against closed forms: the average of T, T^2 and T^3 for a
    # 3-cycle, and the dephasing map for a unitary with distinct phases
    cycle = ORACLE_MAPS["three_cycle"]
    t = cycle.matrix
    got = fixed_point_analysis(cycle).projector.matrix
    assert np.abs(got - (t + t @ t + t @ t @ t) / 3).max() <= 1e-12
    dephase = np.diag(vec(np.eye(3)))
    got = fixed_point_analysis(ORACLE_MAPS["diagonal_unitary"]).projector.matrix
    assert np.abs(got - dephase).max() <= 1e-12
