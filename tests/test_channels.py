import numpy as np
import pytest

from qms.channels import (DensityMatrix, SuperOperator,
                          amplitude_damping_channel, basis_state,
                          choi_matrix, completely_depolarizing, compose,
                          depolarizing_channel, depolarizing_generator, dual,
                          from_kraus, from_lindblad, from_stochastic,
                          generator_exponential, identity_channel,
                          maximally_mixed, pauli_channel,
                          preserves_hermiticity, validate)
from qms.contraction import norm_1to1, tau
from qms.errors import DimensionError, ValidationError
from qms.linalg import dagger, spectral_norm, trace_norm, unvec, vec
from qms.rng import SplitMix64, derive_seed

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_channel_like(d, rank, seed):
    from qms.ensembles import random_channel
    return random_channel(d, rank, seed)


def test_from_kraus_identity():
    t = from_kraus([np.eye(3)])
    assert np.allclose(t.matrix, np.eye(9))
    assert t.trace_preserving


def test_from_kraus_depolarizing_pauli_form():
    p = 0.37
    ops = [np.sqrt(1 - 3 * p / 4) * np.eye(2), np.sqrt(p / 4) * PAULI_X,
           np.sqrt(p / 4) * PAULI_Y, np.sqrt(p / 4) * PAULI_Z]
    t = from_kraus(ops)
    assert t.trace_preserving
    w = np.sort(np.abs(np.linalg.eigvals(t.matrix)))[::-1]
    assert np.allclose(w, [1.0, 1 - p, 1 - p, 1 - p], atol=1e-12)
    assert np.abs(t.matrix - depolarizing_channel(p).matrix).max() <= 1e-12


def test_from_kraus_decay_to_ground():
    # {|0><0|, |0><1|} maps every state to |0><0|
    k0 = np.array([[1, 0], [0, 0]], dtype=complex)
    k1 = np.array([[0, 1], [0, 0]], dtype=complex)
    t = from_kraus([k0, k1])
    assert t.trace_preserving
    for seed in range(4):
        g = SplitMix64(seed).complex_normals((2, 2))
        rho = g @ dagger(g)
        rho /= np.trace(rho).real
        out = t.apply(rho)
        assert np.allclose(out, k0, atol=1e-12)
    assert trace_norm(t.apply(k0) - k0) <= 1e-12


def test_from_kraus_dimension_mismatch():
    with pytest.raises(DimensionError):
        from_kraus([np.eye(2), np.eye(3)])


def test_from_kraus_matches_kraus_action():
    gen = SplitMix64(17)
    ops = [gen.complex_normals((3, 3)) for _ in range(2)]
    t = from_kraus(ops)
    x = gen.complex_normals((3, 3))
    direct = sum(a @ x @ dagger(a) for a in ops)
    assert np.abs(unvec(t.matrix @ vec(x), 3) - direct).max() <= 1e-12


# Test-side np.kron references: the constructors must reproduce these loops
# bit for bit, signed zeros included.

def _bits(m):
    return m.dtype, m.shape, m.tobytes()


def _kraus_reference(ops):
    d = len(ops[0])
    m = np.zeros((d * d, d * d), dtype=complex)
    for a in ops:
        m += np.kron(a.conj(), a)
    return m


def _lindblad_reference(h, jumps):
    eye = np.eye(len(h))
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for l in jumps:
        ll = dagger(l) @ l
        m += (np.kron(l.conj(), l) - 0.5 * np.kron(eye, ll)
              - 0.5 * np.kron(ll.T, eye))
    return m


@pytest.mark.parametrize("d", [2, 3, 4])
def test_from_kraus_is_the_kron_sum_bit_for_bit(d):
    for rank in (1, 2, d * d):
        gen = SplitMix64(derive_seed(41, 10 * d + rank))
        ops = list(gen.complex_normals((rank, d, d)))
        t = from_kraus(ops)
        assert _bits(t.matrix) == _bits(_kraus_reference(ops))
        assert not t.trace_preserving
        # the slices of an isometry: sum_k A_k^dag A_k = I
        iso = np.linalg.qr(gen.complex_normals((d * rank, d)))[0]
        iso_ops = [iso[k * d:(k + 1) * d] for k in range(rank)]
        t = from_kraus(iso_ops)
        assert t.trace_preserving
        assert _bits(t.matrix) == _bits(_kraus_reference(iso_ops))


@pytest.mark.parametrize("jump_count", [0, 1, 3])
def test_from_lindblad_is_the_kron_loop_bit_for_bit(jump_count):
    for d in (2, 3):
        gen = SplitMix64(derive_seed(43, 10 * d + jump_count))
        g = gen.complex_normals((d, d))
        h = (g + dagger(g)) / 2
        jumps = list(gen.complex_normals((jump_count, d, d)))
        got = from_lindblad(h, jumps).matrix
        assert _bits(got) == _bits(_lindblad_reference(h, jumps))


def test_from_stochastic_is_the_index_loop_bit_for_bit():
    s = SplitMix64(44).uniforms(16).reshape(4, 4) + 0.05
    s /= s.sum(axis=1, keepdims=True)
    want = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            want[j * 4 + j, i * 4 + i] = s[i, j]
    assert _bits(from_stochastic(s).matrix) == _bits(want)


def test_conjugated_matrix_is_the_kron_sandwich_bit_for_bit():
    from qms.finite_time import _conjugated_matrix
    gen = SplitMix64(45)
    m = gen.complex_normals((9, 9))
    g = gen.complex_normals((3, 3))
    w, v = np.linalg.eigh(g @ dagger(g) + np.eye(3))
    s_pos = (v * w ** 0.25) @ dagger(v)
    s_neg = (v * w ** -0.25) @ dagger(v)
    want = np.kron(s_neg.T, s_neg) @ m @ np.kron(s_pos.T, s_pos)
    assert _bits(_conjugated_matrix(m, w, v)) == _bits(want)


def test_from_stochastic_identity():
    t = from_stochastic(np.eye(2))
    for i in range(2):
        e = np.zeros((2, 2), dtype=complex)
        e[i, i] = 1
        assert np.allclose(t.apply(e), e)


def test_from_stochastic_swap():
    t = from_stochastic([[0, 1], [1, 0]])
    e00 = np.diag([1.0, 0.0]).astype(complex)
    e11 = np.diag([0.0, 1.0]).astype(complex)
    assert np.allclose(t.apply(e00), e11)
    assert np.allclose(t.apply(e11), e00)
    w = np.linalg.eigvals(t.matrix)
    assert np.isclose(w.real.min(), -1.0, atol=1e-12)
    # coherences are annihilated
    off = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.abs(t.apply(off)).max() <= 1e-12


def test_from_stochastic_uniform_mixes_to_identity():
    t = from_stochastic([[0.5, 0.5], [0.5, 0.5]])
    for seed in range(3):
        g = SplitMix64(seed).complex_normals((2, 2))
        rho = g @ dagger(g)
        rho /= np.trace(rho).real
        assert np.allclose(t.apply(rho), np.eye(2) / 2, atol=1e-12)


def test_from_stochastic_rejects_bad_rows():
    with pytest.raises(ValidationError):
        from_stochastic([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        from_stochastic([[-0.1, 1.1], [0.5, 0.5]])


def test_stochastic_embedding_commutes_with_composition():
    g = SplitMix64(23)
    s1 = g.uniforms(9).reshape(3, 3) + 0.05
    s1 /= s1.sum(axis=1, keepdims=True)
    s2 = g.uniforms(9).reshape(3, 3) + 0.05
    s2 /= s2.sum(axis=1, keepdims=True)
    # p -> S^T p convention: applying S1's channel then S2's channel moves
    # probabilities by S2^T S1^T = (S1 S2)^T
    lhs = from_stochastic(s1 @ s2).matrix
    rhs = compose(from_stochastic(s2), from_stochastic(s1)).matrix
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_dual_identity_and_involution():
    t = random_channel_like(2, 4, seed=5)
    assert np.allclose(dual(identity_channel(3)).matrix, np.eye(9))
    assert np.allclose(dual(dual(t)).matrix, t.matrix)


def test_dual_preserves_identity_for_tp_maps():
    t = random_channel_like(3, 4, seed=8)
    assert np.abs(dual(t).apply(np.eye(3)) - np.eye(3)).max() <= 1e-10


def test_dual_pairing_identity():
    t = random_channel_like(2, 4, seed=9)
    ts = dual(t)
    gen = SplitMix64(31)
    for _ in range(100):
        a = gen.complex_normals((2, 2))
        b = gen.complex_normals((2, 2))
        lhs = np.trace(ts.apply(a) @ b)
        rhs = np.trace(a @ t.apply(b))
        assert abs(lhs - rhs) <= 1e-10


def test_choi_identity_channel():
    j = choi_matrix(identity_channel(2))
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0
    assert np.allclose(j, np.outer(omega, omega.conj()))
    assert np.trace(j).real == pytest.approx(2.0)
    assert np.linalg.matrix_rank(j) == 1


def test_choi_completely_depolarizing():
    j = choi_matrix(completely_depolarizing(2))
    assert np.allclose(j, np.eye(4) / 2)
    assert np.trace(j).real == pytest.approx(2.0)


def transpose_superoperator(d):
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[j * d + i, i * d + j] = 1.0
    return SuperOperator(d, m)


def test_choi_transpose_map_is_swap():
    j = choi_matrix(transpose_superoperator(2))
    w = np.linalg.eigvalsh((j + dagger(j)) / 2)
    assert w.min() == pytest.approx(-1.0, abs=1e-12)
    assert w.max() == pytest.approx(1.0, abs=1e-12)


def test_validate_depolarizing():
    rep = validate(depolarizing_channel(0.5), n_samples=100, seed=0)
    assert rep.trace_preserving and rep.completely_positive and rep.unital
    assert rep.min_choi_eigenvalue == pytest.approx(0.25, abs=1e-12)
    assert rep.positivity == "no_counterexample"


def test_validate_transpose_positive_not_cp():
    rep = validate(transpose_superoperator(2), n_samples=500, seed=1)
    assert rep.trace_preserving
    assert not rep.completely_positive
    assert rep.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-10)
    assert rep.positivity == "no_counterexample"


def test_validate_non_tp_map():
    d = 2
    m = np.eye(4, dtype=complex) - np.outer(vec(np.eye(d) / d), vec(np.eye(d)))
    rep = validate(SuperOperator(d, 1.3 * m), n_samples=10, seed=0)
    assert not rep.trace_preserving
    assert rep.tp_residual > 0


def test_validate_finds_counterexample_for_negative_map():
    # X -> -X is trace-reversing and maps states to negative matrices
    rep = validate(SuperOperator(2, -np.eye(4, dtype=complex)), n_samples=50,
                   seed=2)
    assert rep.positivity == "counterexample"
    assert rep.positivity_witness is not None


def test_validate_map_that_does_not_preserve_hermiticity_is_not_positive():
    # sends |+><+| to the non-Hermitian [[0.5, 0.25], [0.5, 0.5]], while
    # its Hermitian part's Choi matrix has no negative eigenvalue
    m = depolarizing_channel(0.5).matrix.copy()
    m[1, 1] = 1.0
    t = SuperOperator(2, m)
    plus = np.full((2, 2), 0.5)
    image = t.apply(plus)
    assert np.allclose(image, [[0.5, 0.25], [0.5, 0.5]])
    rep = validate(t, n_samples=100, seed=0)
    assert rep.min_choi_eigenvalue >= -1e-8
    assert not rep.hermiticity_preserving
    assert not rep.completely_positive
    assert rep.positivity == "counterexample"
    w = rep.positivity_witness
    out = t.apply(np.outer(w, w.conj()))
    assert np.linalg.norm(out - dagger(out)) / 2 > 1e-8


@pytest.mark.parametrize("shift, preserving", [(1e-9, True), (1e-3, False)])
def test_validate_and_tau_share_one_hermiticity_verdict(shift, preserving):
    # the qubit closed form of tau needs a Hermiticity-preserving map, so
    # tau takes it exactly when validate reports the map as one, and the
    # ascent otherwise
    m = depolarizing_channel(0.5).matrix.copy()
    m[0, 1] += shift
    t = SuperOperator(2, m)
    assert validate(t, n_samples=10).hermiticity_preserving is preserving
    assert tau(t).method == ("analytic" if preserving else "multistart_manifold")


@pytest.mark.parametrize("shift, preserving", [(1e-6, True), (1e-3, False)])
def test_hermiticity_scale_is_computed_only_past_1e_8(count_linalg, shift,
                                                       preserving):
    # ||M||_2 = 1e4 puts the threshold at 1e-4: a residual of 1e-6 is
    # accepted and one of 1e-3 is not, and each needs ||M||_2, which an
    # exactly Hermiticity-preserving map never does
    m = 1e4 * depolarizing_channel(0.5).matrix
    m[0, 1] += shift
    t = SuperOperator(2, m)
    j = choi_matrix(t)
    expected = spectral_norm(j - dagger(j))
    calls = count_linalg("svd")
    ok, res = preserves_hermiticity(t, j)
    assert (ok, calls["svd"]) == (preserving, 2)
    assert res == expected == pytest.approx(shift, rel=1e-9)
    exact = depolarizing_channel(0.5)
    assert preserves_hermiticity(exact, choi_matrix(exact))[0]
    assert calls["svd"] == 3


def test_exactly_hermitian_state_needs_no_svd(count_linalg):
    # an exactly Hermitian matrix has residual 0 without an SVD; a 1e-9
    # skew still costs one and is refused with the residual it reports
    g = SplitMix64(83).complex_normals((3, 3))
    rho = g @ dagger(g)
    rho = (rho + dagger(rho)) / 2 / np.trace(rho).real
    calls = count_linalg("svd")
    DensityMatrix(3, rho)
    assert calls["svd"] == 0
    skewed = rho.copy()
    skewed[0, 1] += 1e-9
    residual = spectral_norm(skewed - dagger(skewed))
    with pytest.raises(ValidationError,
                       match=f"not Hermitian \\(residual {residual:.3g}\\)"):
        DensityMatrix(3, skewed)
    assert calls["svd"] == 2


def test_hermiticity_test_of_a_stack_is_each_maps_test():
    maps = [random_channel_like(2, 3, seed=81), depolarizing_channel(0.5)]
    for shift in (1e-9, 1e-6, 1e-3):
        m = 1e4 * depolarizing_channel(0.5).matrix
        m[0, 1] += shift
        maps.append(SuperOperator(2, m))
    ms = np.stack([t.matrix for t in maps])
    js = choi_matrix(ms)
    ok, res = preserves_hermiticity(ms, js)
    assert ok.tolist() == [True, True, True, True, False]
    for t, j, ok_k, res_k in zip(maps, js, ok, res):
        assert np.array_equal(j, choi_matrix(t))
        assert preserves_hermiticity(t, j) == (ok_k, res_k)


def test_superoperator_equality_is_identity():
    t = depolarizing_channel(0.5)
    twin = SuperOperator(2, t.matrix.copy())
    assert t == t and t != twin
    assert len({t, twin}) == 2


def test_validate_deterministic():
    t = random_channel_like(2, 4, seed=77)
    r1 = validate(t, n_samples=64, seed=5)
    r2 = validate(t, n_samples=64, seed=5)
    assert r1.to_dict() == r2.to_dict()


def test_composition_matches_kraus_composition():
    gen = SplitMix64(41)
    t1 = random_channel_like(2, 3, seed=derive_seed(41, 1))
    t2 = random_channel_like(2, 3, seed=derive_seed(41, 2))
    x = gen.complex_normals((2, 2))
    assert np.abs(compose(t1, t2).apply(x) - t1.apply(t2.apply(x))).max() <= 1e-12
    # the composed superoperator equals the channel of the composed Kraus family
    g1 = SplitMix64(derive_seed(43, 1))
    ops1 = [g1.complex_normals((2, 2)) for _ in range(2)]
    ops2 = [g1.complex_normals((2, 2)) for _ in range(2)]
    composed = compose(from_kraus(ops1), from_kraus(ops2))
    kraus_prod = from_kraus([a @ b for a in ops1 for b in ops2])
    assert np.abs(composed.matrix - kraus_prod.matrix).max() <= 1e-12


def test_positive_tp_maps_have_unit_norm():
    for seed in (3, 4):
        t = random_channel_like(2, 4, seed=seed)
        est = norm_1to1(t, restarts=16, seed=seed)
        assert est.value == pytest.approx(1.0, abs=1e-6)
    s = from_stochastic([[0.7, 0.3], [0.2, 0.8]])
    assert norm_1to1(s, restarts=16, seed=0).value == pytest.approx(1.0, abs=1e-6)


def test_amplitude_damping_and_pauli_fixtures():
    t = amplitude_damping_channel(1.0)
    ground = basis_state(2, 0).matrix
    assert np.allclose(t.apply(maximally_mixed(2).matrix), ground)
    tp = pauli_channel(0.1, 0.2, 0.3)
    assert tp.trace_preserving
    rep = validate(tp, n_samples=50, seed=0)
    assert rep.completely_positive and rep.unital


def test_superoperator_shape_validation():
    with pytest.raises(DimensionError):
        SuperOperator(2, np.eye(3))
    with pytest.raises(ValidationError):
        SuperOperator(2, np.full((4, 4), np.nan))


def test_public_signatures_keep_only_options_with_callers():
    # each parameter and field here has a caller outside the tests; the
    # options that had none are constants now and must not come back
    import dataclasses
    import inspect

    import qms
    from qms import (channels, contraction, ensembles, finite_time, linalg,
                     spectral)

    assert [f.name for f in dataclasses.fields(SuperOperator)] == [
        "dim", "matrix", "label"]
    assert [f.name for f in dataclasses.fields(channels.GeneratorMap)] == [
        "dim", "matrix"]
    expected = {
        channels.check_stationary: ["t", "rho"],
        contraction.tau: ["t", "restarts", "seed"],
        contraction.norm_1to1: ["t", "restarts", "seed", "hermitian_only"],
        finite_time.pair_spectral_eq10: ["t", "mu", "n_check", "seed"],
        finite_time.validate_pair_on_channel: ["pair", "t", "n_max", "seed"],
        finite_time.validate_pair_on_generator: ["pair", "gen", "t_max",
                                                 "samples", "seed"],
        finite_time.discrete_trajectory_check: [
            "t", "e", "rho0", "sigma0", "n_steps", "pair", "restarts", "seed",
            "strict"],
        finite_time.continuous_trajectory_check: [
            "gen_t", "gen_e", "rho0", "sigma0", "t_max", "steps", "pair",
            "restarts", "seed", "strict"],
        ensembles.perturb_generator: ["gen", "eps", "seed"],
        contraction.probe_inputs: ["d", "seed"],
    }
    for func, names in expected.items():
        assert list(inspect.signature(func).parameters) == names, func.__name__
    pair = inspect.signature(finite_time.continuous_trajectory_check).parameters["pair"]
    assert pair.default is inspect.Parameter.empty
    for module, name in [(channels, "PROVENANCES"), (contraction, "TOL_OPT"),
                         (contraction, "tau_of_powers_check"),
                         (qms, "tau_of_powers_check"),
                         (SuperOperator, "__matmul__"),
                         (spectral, "stationary_states"),
                         (qms, "stationary_states"),
                         (spectral, "_stationary_basis"),
                         (spectral.FixedPointAnalysis, "stationary"),
                         (linalg, "_PADE"), (linalg, "_THETA"),
                         (linalg, "_pade_rows")]:
        assert not hasattr(module, name), name


def test_public_namespace_is_pinned():
    # adding or removing a public name is a deliberate change to this list;
    # submodules are not part of the namespace
    import qms
    assert sorted(qms.__all__) == [
        "BoundReport", "ConditionReport", "ContractionEstimate",
        "ConvergencePair", "DensityMatrix", "EnsembleConfig",
        "FiniteTimeBound", "GeneratorMap", "MinimalPolynomial",
        "PerturbationOutcome", "SpectralData", "SuperOperator",
        "amplitude_damping_channel", "asymptotic_continuous",
        "asymptotic_discrete", "basis_state", "choi_matrix",
        "completely_depolarizing", "compose", "condition_numbers",
        "continuous_bound", "continuous_trajectory_check",
        "depolarizing_channel", "depolarizing_generator", "discrete_bound",
        "discrete_trajectory_check", "dual", "fixed_point_analysis",
        "fixed_point_perturbation", "from_kraus", "from_lindblad",
        "from_stochastic", "fundamental_map", "generator_exponential",
        "identity_channel", "matrix_exp", "maximally_mixed",
        "minimal_polynomial", "n_hat", "norm_1to1", "pair_chi2",
        "pair_chi2_generator", "pair_detailed_balance",
        "pair_detailed_balance_generator", "pair_spectral_eq10",
        "pauli_channel", "perturb_channel", "perturb_generator", "pure_state",
        "random_channel", "random_density", "random_generator",
        "spectral_quantities", "sweep", "t_hat", "tau", "trace_norm", "unvec",
        "user_pair", "validate", "vec"]
    for name in qms.__all__:
        assert hasattr(qms, name), name


def test_public_names_are_their_defining_modules_objects():
    import importlib

    import qms
    from qms import contraction
    assert qms.tau is contraction.tau
    for name in qms.__all__:
        obj = getattr(qms, name)
        assert obj.__module__.startswith("qms."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(qms.__all__) <= set(dir(qms))


def test_unknown_public_name_is_an_attribute_error():
    import qms
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qms.no_such_name
    with pytest.raises(ImportError):
        from qms import no_such_name  # noqa: F401


# ---------------------------------------------------------------------------
# one trace-preservation rule, read from the matrix


def _kraus_edge(d, eps):
    # sum_k A_k^dag A_k - I = eps I: spectral norm eps <= 1e-10, but a TP
    # residual ||M^dag vec(I) - vec(I)||_2 of sqrt(d) eps > 1e-10
    return [np.sqrt(1.0 + eps) * np.eye(d)]


def _complex_lists(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _maps_from_every_constructor():
    """(name, map, expected TP verdict) for each way a SuperOperator is made."""
    from qms.ensembles import perturb_channel, random_channel
    from qms.serialize import channel_from_dict
    from qms.spectral import fixed_point_analysis, fundamental_map

    gen = SplitMix64(47)
    iso = np.linalg.qr(gen.complex_normals((6, 3)))[0]
    gauss = list(gen.complex_normals((2, 3, 3)))
    rc = random_channel(3, 4, 11)
    amp = amplitude_damping_channel(0.3)
    stoch = [[0.7, 0.3], [0.2, 0.8]]
    return [
        ("identity", identity_channel(3), True),
        ("depolarizing", depolarizing_channel(0.4, 3), True),
        ("pauli", pauli_channel(0.1, 0.2, 0.3), True),
        ("amplitude_damping", amp, True),
        ("kraus_isometry", from_kraus([iso[:3], iso[3:]]), True),
        ("kraus_gaussian", from_kraus(gauss), False),
        ("kraus_edge_d2", from_kraus(_kraus_edge(2, 0.9e-10)), False),
        ("kraus_edge_d3", from_kraus(_kraus_edge(3, 0.6e-10)), False),
        ("stochastic", from_stochastic(stoch), True),
        ("stochastic_edge", from_stochastic(
            [[0.5 + 0.9e-10, 0.5], [0.5, 0.5 + 0.9e-10]]), False),
        ("compose", compose(amp, pauli_channel(0.1, 0.2, 0.3)), True),
        ("dual_unital", dual(depolarizing_channel(0.4)), True),
        ("dual_non_unital", dual(amp), False),
        ("perturb_channel", perturb_channel(rc, 0.01, 12), True),
        ("generator_exponential",
         generator_exponential(depolarizing_generator(1.0), 0.5), True),
        ("dict_kraus", channel_from_dict(
            {"dim": 2, "representation": "kraus",
             "data": [_complex_lists(a) for a in _kraus_edge(2, 0.9e-10)]}), False),
        ("dict_stochastic", channel_from_dict(
            {"dim": 2, "representation": "stochastic", "data": stoch}), True),
        ("dict_superoperator", channel_from_dict(
            {"dim": 2, "representation": "superoperator",
             "data": _complex_lists(amp.matrix)}), True),
        ("fundamental_map", fundamental_map(rc), True),
        ("fixed_point_projector", fixed_point_analysis(rc).projector, True),
    ]


def test_every_constructor_takes_its_tp_verdict_from_the_matrix():
    # the edge maps pass their constructors' input checks (sum A^dag A - I
    # in spectral norm, the row sums - 1 in max norm, each within 1e-10)
    # but not the TP rule
    for name, t, expected in _maps_from_every_constructor():
        assert t.trace_preserving is (t.tp_residual() <= 1e-10), name
        assert t.trace_preserving is expected, name
        assert validate(t, n_samples=4).trace_preserving is expected, name


def test_trace_preserving_is_read_only():
    with pytest.raises(AttributeError):
        depolarizing_channel(0.5).trace_preserving = False


def test_validate_computes_the_tp_residual_once(count_calls):
    # the verdict and the reported residual read the same cached value
    residuals = count_calls(vars(SuperOperator)["_tp_residual"], "func")
    report = validate(depolarizing_channel(0.5), n_samples=4)
    assert len(residuals) == 1
    assert report.trace_preserving and report.tp_residual <= 1e-10


def test_projector_that_loses_trace_preservation_is_a_numeric_error(monkeypatch):
    # scaling the projector by 1 + 3e-10 passes the 1e-8 idempotence and
    # T o P checks but moves its TP residual to 4.2e-10
    from qms.errors import NumericError
    from qms.spectral import fixed_point_analysis

    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solve(a, b) * (1.0 + 3e-10))
    with pytest.raises(NumericError, match="not trace-preserving"):
        fixed_point_analysis(depolarizing_channel(0.5))


def _tp_rule_offenders(source: str) -> list:
    """Lines of ``source`` outside class SuperOperator that set a
    ``trace_preserving`` (other than ValidationReport's field) or compare a
    ``tp_residual()``, directly or through a name bound to one, with 1e-10."""
    import ast

    def is_tp_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "tp_residual")

    offenders = []

    def visit(node, residual_names):
        if isinstance(node, ast.ClassDef) and node.name == "SuperOperator":
            return
        if isinstance(node, ast.FunctionDef):
            residual_names = set()
        if isinstance(node, ast.Assign) and is_tp_call(node.value):
            residual_names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.Call) and not (
                isinstance(node.func, ast.Name) and node.func.id == "ValidationReport"):
            if any(k.arg == "trace_preserving" for k in node.keywords):
                offenders.append(f"{node.lineno}: trace_preserving= keyword")
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        if any(isinstance(t, ast.Attribute) and t.attr == "trace_preserving"
               for t in targets):
            offenders.append(f"{node.lineno}: .trace_preserving assigned")
        if isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            if (any(is_tp_call(x) or (isinstance(x, ast.Name) and x.id in residual_names)
                    for x in sides)
                    and any(isinstance(x, ast.Constant) and x.value == 1e-10
                            for x in sides)):
                offenders.append(f"{node.lineno}: tp_residual compared with 1e-10")
        for child in ast.iter_child_nodes(node):
            visit(child, residual_names)

    visit(ast.parse(source), set())
    return offenders


def test_trace_preservation_is_decided_only_by_superoperator():
    # one TP rule: no module sets the verdict or re-derives it from the
    # residual; random_generator's looser 1e-8 spot check is a separate rule
    from pathlib import Path

    import qms

    sources = sorted(Path(qms.__file__).parent.glob("*.py"))
    assert len(sources) >= 12
    offenders = [f"{path.name}:{line}" for path in sources
                 for line in _tp_rule_offenders(path.read_text())]
    assert offenders == []


def test_tp_rule_guard_catches_each_form():
    flagged = _tp_rule_offenders(
        "so = SuperOperator(d, m, trace_preserving=True)\n"
        "def f(so):\n"
        "    so.trace_preserving = so.tp_residual() <= 1e-10\n"
        "    res = so.tp_residual()\n"
        "    return res <= 1e-10\n")
    assert [f.split(":")[0] for f in flagged] == ["1", "3", "3", "5"]
    assert _tp_rule_offenders(
        "def validate(t):\n"
        "    return ValidationReport(trace_preserving=t.trace_preserving)\n"
        "def spot(snap):\n"
        "    return snap.tp_residual() > 1e-8\n") == []
