"""Path simulation, the trace oracle, subordination, bulk estimators."""

import inspect

import numpy as np
import pytest

from levymult import (
    AtomsMeasure,
    IDENTITY_MOD,
    Modulator,
    SampledField,
    SphericalMeasure,
    SymbolSpec,
    approximate,
    brownian_pairing,
    check_subordination,
    cross_form,
    estimate_pairing,
    gaussian_bump,
    evaluate_grid,
    gaussian_spectral_value,
    lp_norm,
    make_data,
    norm_probe,
    pairing,
    psi,
    psi_tilde,
    run_cpp_paths,
    semigroup_eval,
    spectral_pairing_value,
    symbol_integral,
    table_mod,
    within_sigmas,
)
from levymult.kernels import brownian_accumulate
from levymult.quadrature import panel_rule
from levymult.spectral import values_from_coefficients
from levymult.errors import GridMismatch, MeasureValidationError, ShapeMismatch, StepTooCoarse
from levymult import checks, mc
from levymult.mc import mean_and_se

from _traces import (
    QuadratureNodesInsufficient,
    TraceMismatch,
    check_subordination as trace_subordination,
    general_G,
    parabolic_F,
    point_and_power_stats,
    simulate_cpp,
)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_poisson_count_statistics():
    nu = AtomsMeasure([[1.0]], [2.0])
    counts = np.array([simulate_cpp(nu, 10, i).times.size for i in range(20000)])
    se = np.sqrt(2.0 / counts.size)
    assert abs(counts.mean() - 2.0) < 3.0 * se
    # times are sorted uniforms in (0, 1]
    path = simulate_cpp(nu, 10, 3)
    assert np.all(np.diff(path.times) >= 0.0)
    assert np.all((path.times > 0.0) & (path.times <= 1.0))


def test_simulate_deterministic_per_stream():
    nu = AtomsMeasure([[1.0], [2.0]], [0.5, 1.5])
    a = simulate_cpp(nu, 123, 7)
    b = simulate_cpp(nu, 123, 7)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.marks, b.marks)
    c = simulate_cpp(nu, 123, 8)
    assert a.times.size != c.times.size or not np.array_equal(a.times, c.times)


# |nu| = 12 takes numpy's PTRS branch of the Poisson sampler (mean >= 10)
@pytest.mark.parametrize("weights", [[1.0], [2.0, 1.5, 1.5, 1.0], [5.0, 4.0, 3.0]])
@pytest.mark.parametrize("first", [0, 37])
def test_block_sampler_draws_the_per_path_streams(weights, first):
    """Path i of a block draws, bitwise, what a fresh Philox keyed by
    (seed, i) draws: the count, then c uniforms for the times, then c for
    the marks."""
    nu = AtomsMeasure(np.arange(1.0, len(weights) + 1.0)[:, None], weights)
    seed, count = 2024, 300
    times, marks, offsets = mc._sample_paths(nu, seed, first, count)
    cum = np.cumsum(weights) / nu.total_mass
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, first + i], dtype=np.uint64)))
        c = rng.poisson(nu.total_mass)
        want_times = np.sort(rng.random(c))
        want_marks = np.minimum(np.searchsorted(cum, rng.random(c), side="right"),
                                len(weights) - 1)
        rows = slice(offsets[i], offsets[i + 1])
        assert offsets[i + 1] - offsets[i] == c
        assert np.array_equal(times[rows], want_times)
        assert np.array_equal(marks[rows], want_marks)
    if nu.total_mass == 1.0:
        assert np.any(np.diff(offsets) == 0)   # paths with no jumps


def test_simulate_rejects_zero_mass():
    with pytest.raises(MeasureValidationError):
        simulate_cpp(AtomsMeasure(np.zeros((0, 1)), np.zeros(0)), 0)


def test_mark_law_matches_weights():
    nu = AtomsMeasure([[1.0], [2.0]], [0.7, 0.3])
    marks = np.concatenate([simulate_cpp(nu, 5, i).marks for i in range(20000)])
    frac = (marks == 0).mean()
    se = np.sqrt(0.7 * 0.3 / marks.size)
    assert abs(frac - 0.7) < 4.0 * se


# ---------------------------------------------------------------------------
# trace oracle (tests/_traces.py)
# ---------------------------------------------------------------------------


def _config():
    nu = AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4])
    data = make_data(nu, A=[[1.0]], B=[[-1.0]])
    mod = Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j]))
    return data, mod


def test_parabolic_no_jump_path_is_constant(bump_f):
    # on the no-jump event the endpoint differs from the starting value
    # only through the jump risk priced into P_1 f, i.e. by O(intensity)
    lam = 1e-9
    nu_rare = AtomsMeasure([[2.0]], [lam])
    data_rare = make_data(nu_rare, A=[[1.0]], B=[[1.0]])
    for i in range(50):
        path = simulate_cpp(nu_rare, 3, i)
        if path.times.size == 0:
            tr = parabolic_F(path, bump_f, data_rare.A, data_rare, [0.2])
            assert abs(tr.values[-1] - tr.values[0]) < 10.0 * lam
            assert tr.qv[-1] == abs(tr.values[0]) ** 2
            break
    else:
        pytest.fail("no empty path found")


def test_parabolic_endpoint_is_field_value(bump_f):
    data, _ = _config()
    from levymult.levy import drift_reduce
    _, h = drift_reduce(data)
    path = simulate_cpp(data.nu, 11, 4)
    tr = parabolic_F(path, bump_f, data.A, data, [0.3])
    y1 = path.jumps.sum(axis=0) + h
    want = semigroup_eval(bump_f, data.A, data, 0.0,
                          np.array([0.3]) + data.A @ y1)
    assert tr.final == pytest.approx(want, rel=1e-12)


def test_parabolic_martingale_mean(bump_f):
    data, _ = _config()
    x = [0.3]
    finals = []
    for i in range(4000):
        path = simulate_cpp(data.nu, 21, i)
        finals.append(parabolic_F(path, bump_f, data.A, data, x).final)
    finals = np.array(finals)
    f0 = semigroup_eval(bump_f, data.A, data, 1.0, x)
    m, se = mean_and_se(finals - f0)
    assert within_sigmas(m, se, 0.0, 3.5)


def test_general_phi_one_equals_increment(bump_g):
    # the jump-transformed martingale with unit weight reproduces the
    # endpoint-type increments: G_t(x; g, B, 1) = F_t(x; g, B) - F_0
    data, _ = _config()
    mod1 = Modulator(phi=table_mod([1.0, 1.0, 1.0]))
    for i in range(6):
        path = simulate_cpp(data.nu, 33, i)
        tF = parabolic_F(path, bump_g, data.B, data, [0.1])
        tG = general_G(path, bump_g, data.B, mod1, data, [0.1], check_nodes=False)
        assert np.max(np.abs(tG.values - (tF.values - tF.values[0]))) < 1e-9
        if path.times.size:
            assert np.max(np.abs(tG.jump_deltas - tF.jump_deltas)) < 1e-12


def test_general_zero_phi_is_zero(bump_g):
    data, _ = _config()
    mod0 = Modulator(phi=table_mod([0.0, 0.0, 0.0]))
    path = simulate_cpp(data.nu, 13, 2)
    tG = general_G(path, bump_g, data.B, mod0, data, [0.0], check_nodes=False)
    assert np.max(np.abs(tG.values)) == 0.0


def test_general_node_doubling_warns_when_coarse(bump_g):
    data, mod = _config()
    path = simulate_cpp(data.nu, 17, 5)
    with pytest.warns(QuadratureNodesInsufficient):
        general_G(path, bump_g, data.B, mod, data, [0.1], nodes=1, check_nodes=True)


def test_general_martingale_mean(bump_g):
    data, mod = _config()
    stats = point_and_power_stats(gaussian_bump(40.0, 512, 1), gaussian_bump(40.0, 512, 1),
                                  data, mod, 6000, 41)
    m, se = mean_and_se(stats["g1_x0"])
    assert within_sigmas(m, se, 0.0, 3.5)


# ---------------------------------------------------------------------------
# subordination
# ---------------------------------------------------------------------------


def test_subordination_unit_weight_equality(bump_g):
    nu = AtomsMeasure([[1.0], [-2.0]], [0.7, 0.3])
    data = make_data(nu, A=[[1.0]], B=[[1.0]])
    mod1 = Modulator(phi=table_mod([1.0, 1.0]))
    path = simulate_cpp(nu, 3, 1)
    tF = parabolic_F(path, bump_g, data.A, data, [0.2])
    tG = general_G(path, bump_g, data.B, mod1, data, [0.2], check_nodes=False)
    ok, viol = trace_subordination(tF, tG)
    assert ok and viol == 0.0
    assert np.allclose(np.abs(tG.jump_deltas), np.abs(tF.jump_deltas))


def test_subordination_half_weight_quarter_increments(bump_g):
    nu = AtomsMeasure([[1.0], [-2.0]], [0.7, 0.3])
    data = make_data(nu, A=[[1.0]], B=[[1.0]])
    mod = Modulator(phi=table_mod([0.5, 0.5]))
    path = simulate_cpp(nu, 4, 2)
    assert path.times.size > 0
    tF = parabolic_F(path, bump_g, data.A, data, [0.2])
    tG = general_G(path, bump_g, data.B, mod, data, [0.2], check_nodes=False)
    ok, _ = trace_subordination(tF, tG)
    assert ok
    assert np.allclose(np.abs(tG.jump_deltas) ** 2,
                       0.25 * np.abs(tF.jump_deltas) ** 2)


def test_subordination_random_phi_no_violations(bump_g):
    data, mod = _config()
    data_eq = make_data(data.nu, A=[[1.0]], B=[[1.0]])
    for i in range(300):
        path = simulate_cpp(data.nu, 29, i)
        tF = parabolic_F(path, bump_g, data_eq.A, data_eq, [0.3])
        tG = general_G(path, bump_g, data_eq.B, mod, data_eq, [0.3],
                       check_nodes=False)
        ok, viol = trace_subordination(tF, tG)
        assert ok, f"violation {viol} on path {i}"


def test_subordination_trace_mismatch(bump_g):
    data, mod = _config()
    p1 = simulate_cpp(data.nu, 1, 1)
    p2 = simulate_cpp(data.nu, 1, 2)
    tF = parabolic_F(p1, bump_g, data.A, data, [0.0])
    tG = general_G(p2, bump_g, data.B, mod, data, [0.0], check_nodes=False)
    with pytest.raises(TraceMismatch):
        trace_subordination(tF, tG)


def _doubled(f):
    return SampledField(d=f.d, L=f.L, N=f.N, values=2.0 * f.values)


def test_check_subordination_flags_every_path_with_a_jump(bump_f):
    # g = 2 f with A = B and phi = 1: |dG|^2 = 4 |dF|^2 at every jump
    data = make_data(_config()[0].nu, A=[[1.0]], B=[[1.0]])
    violating, jumps, worst = check_subordination(bump_f, _doubled(bump_f), data,
                                                  IDENTITY_MOD, 300, 29, [0.3])
    counts = [simulate_cpp(data.nu, 29, i).times.size for i in range(300)]
    assert jumps == sum(counts)
    assert violating == np.count_nonzero(counts) and worst > 0.0


# the worst violation comes from the running rule at x = 2 in the first
# case and from the per-jump rule at x = 0.3 in the second
@pytest.mark.parametrize("case, x", [("g=2f,A=B", 2.0), ("A!=B", 0.3)])
def test_check_subordination_matches_trace_oracle(bump_f, bump_g, case, x):
    data, mod = _config()
    g = bump_g
    if case == "g=2f,A=B":
        data = make_data(data.nu, A=[[1.0]], B=[[1.0]])
        mod, g = IDENTITY_MOD, _doubled(bump_f)
    violating, jumps, worst = check_subordination(bump_f, g, data, mod, 300, 29, [x])
    oracle = []
    for i in range(300):
        path = simulate_cpp(data.nu, 29, i)
        tF = parabolic_F(path, bump_f, data.A, data, [x])
        tG = general_G(path, g, data.B, mod, data, [x], check_nodes=False)
        oracle.append(trace_subordination(tF, tG)[1])
    oracle = np.array(oracle)
    assert violating == np.count_nonzero(oracle) > 0
    assert worst == pytest.approx(oracle.max(), rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# blocked estimators
# ---------------------------------------------------------------------------


def test_blocked_kernel_matches_traces(bump_f, bump_g):
    data, mod = _config()
    stats = point_and_power_stats(bump_f, bump_g, data, mod, 8, 123)
    x0 = stats["x0_point"]
    for i in range(8):
        path = simulate_cpp(data.nu, 123, i)
        tF = parabolic_F(path, bump_f, data.A, data, x0)
        tG = general_G(path, bump_g, data.B, mod, data, x0, nodes=12,
                       check_nodes=False)
        assert abs(tF.final - stats["f1_x0"][i]) < 1e-11
        assert abs(tG.final - stats["g1_x0"][i]) < 1e-9


def test_mc_entry_points_reject_fields_on_different_grids(bump_f):
    data, mod = _config()
    for other in (gaussian_bump(40.0, 512, 1), gaussian_bump(20.0, 1024, 1)):
        with pytest.raises(GridMismatch):
            run_cpp_paths(bump_f, other, data, mod, 10, 1)
        with pytest.raises(GridMismatch):
            check_subordination(bump_f, other, data, mod, 10, 1, [0.3])
        with pytest.raises(GridMismatch):
            brownian_pairing(bump_f, other, [[1.0]], [[1.0]], [[0.5]], 10, 4, 1)


@pytest.mark.parametrize("A, B, K", [
    ([[1.0]], [[1.0]], np.eye(2)),                 # K is not n x n
    ([[1.0, 0.0]], [[1.0]], [[0.5]]),              # A and B differ in shape
    ([[1.0], [0.5]], [[1.0], [0.5]], [[0.5]]),     # two rows against 1-D fields
])
def test_brownian_pairing_names_bad_maps(bump_f, bump_g, A, B, K):
    with pytest.raises(ShapeMismatch):
        brownian_pairing(bump_f, bump_g, A, B, K, 10, 4, 1)


@pytest.mark.parametrize("entry", ["run_cpp_paths", "estimate_pairing", "check_subordination"])
def test_cpp_entry_points_name_maps_of_another_dimension(bump_f, bump_g, entry):
    data = make_data(AtomsMeasure([[1.0]], [1.0]), A=[[1.0], [0.5]], B=[[1.0], [0.5]])
    x = ([0.3, 0.0],) if entry == "check_subordination" else ()
    with pytest.raises(ShapeMismatch, match="rows"):
        getattr(mc, entry)(bump_f, bump_g, data, IDENTITY_MOD, 10, 1, *x)


def test_jump_engine_rejects_gaussian_part(bump_f, bump_g):
    # the compound-Poisson paths carry no Brownian component, so a sphere
    # part with weight would be dropped from F and G without a word
    data = make_data(AtomsMeasure([[1.0], [-2.0]], [0.7, 0.3]),
                     mu=SphericalMeasure([[1.0]], [0.6]), A=[[1.0]], B=[[-1.0]])
    mod = Modulator(phi=table_mod([0.5, -0.8j]), psi=table_mod([-0.9]))
    with pytest.raises(MeasureValidationError, match="sphere"):
        run_cpp_paths(bump_f, bump_g, data, mod, 10, 5)
    with pytest.raises(MeasureValidationError, match="sphere"):
        estimate_pairing(bump_f, bump_g, data, mod, 10, 5)
    with pytest.raises(MeasureValidationError, match="sphere"):
        check_subordination(bump_f, bump_g, data, mod, 10, 5, [0.3])


def test_reference_pairings_use_the_fields_grid():
    # a box with unequal sides: the references must tabulate the symbol on
    # the field's own grid, not on a square box of the first side
    f = gaussian_bump((20.0, 40.0), 64, 2, center=[0.5, -1.0], width=1.2)
    g = gaussian_bump((20.0, 40.0), 64, 2, center=[-0.3, 0.8], width=1.0)
    data = make_data(AtomsMeasure([[1.0, 0.5], [-0.8, 1.2]], [0.8, 0.6]),
                     A=[[1.0, 0.0], [0.0, 1.0]], B=[[0.3, 1.0], [-1.0, 0.2]])
    mod = Modulator(phi=table_mod([0.9, -0.6j]))
    spec = SymbolSpec(variant="q_form", data=data, mod=mod)
    want = pairing(evaluate_grid(spec, L=f.L, N=f.N), f, g).spectral
    assert spectral_pairing_value(f, g, data, mod) == want
    A, B, K = np.eye(2), [[0.5, 0.2], [0.1, -0.7]], [[0.0, 0.6j], [0.6j, 0.0]]
    spec = SymbolSpec(variant="gaussian", A=A, B=B, K=K, var_scale=0.5)
    want = pairing(evaluate_grid(spec, L=f.L, N=f.N), f, g).spectral
    assert gaussian_spectral_value(f, g, A, B, K) == want


def test_criterion_6_gate_catches_scaled_compensator(monkeypatch):
    """Planted fault for criterion 6: the compensator atom sum scaled by 1.1.

    Criterion 6's two-atom A = -B model at 20,000 paths on 512 points, seed
    405: the planted run lands 7.9 sigma off the spectral value and 5.4
    sigma between the two routes, the unplanted run 0.9 and 0.2 sigma.
    """
    data = make_data(AtomsMeasure([[1.0], [-2.0]], [0.7, 0.3]), A=[[1.0]], B=[[-1.0]])
    mod = Modulator(phi=table_mod([0.5, -0.8j]))
    f = gaussian_bump(40.0, 512, 1, center=[0.5], width=0.9)
    g = gaussian_bump(40.0, 512, 1, center=[-0.3], width=1.1)
    ref = spectral_pairing_value(f, g, data, mod)
    est = estimate_pairing(f, g, data, mod, 20000, 405)
    assert est.agrees_with(ref, 3.0) and est.routes_agree(3.0)

    kernel = mc.cpp_pair_coeffs
    # the atom masses are the kernel's fourteenth argument, before neg and at;
    # the compensator's atom sum is linear in them, so this scales it by 1.1
    monkeypatch.setattr(mc, "cpp_pair_coeffs",
                        lambda *a: kernel(*a[:13], 1.1 * a[13], *a[14:]))
    est = estimate_pairing(f, g, data, mod, 20000, 405)
    assert not est.agrees_with(ref, 3.0)
    assert not est.routes_agree(3.0)


def test_pair_and_cov_do_not_alias_on_a_wide_band(monkeypatch):
    # the band reaches past N / 8 on both axes, where the powers' stride-4
    # subgrid aliases F1 G1; pair and cov are box integrals, so they must
    # equal the products summed on the full x-grid
    f = gaussian_bump((20.0, 40.0), (32, 64), 2, center=[0.5, -1.0], width=1.2)
    g = gaussian_bump((20.0, 40.0), (32, 64), 2, center=[-0.3, 0.8], width=1.4)
    data = make_data(AtomsMeasure([[1.0, 0.5], [-0.8, 1.2]], [0.8, 0.6]),
                     A=[[1.0, 0.3], [-0.2, 0.9]], B=[[0.3, 1.0], [-1.0, 0.2]])
    mod = Modulator(phi=table_mod([0.9, -0.6j]))
    stats = run_cpp_paths(f, g, data, mod, 300, 3)
    # the kernel's at as a (K, M) phase matrix: each jump's dF, dG at every grid point
    band = mc._band(f, g, data.A, data.B)[2]
    grid = np.stack(np.meshgrid(*f.space_axes, indexing="ij"), axis=-1).reshape(-1, 2)
    at = np.exp(-1j * (f.xi[band] @ grid.T))
    at *= f.dxi_norm
    kernel = mc.cpp_pair_coeffs
    monkeypatch.setattr(mc, "cpp_pair_coeffs", lambda *a: kernel(*a[:-1], at))
    _, blocks = mc._cpp_blocks(f, g, data, mod, 300, 3)
    (_, offsets, (cF1, cG1, _, _, points)), = blocks
    assert points.shape == (2, 300, np.diff(offsets).max(), f.size)

    coeffs = np.zeros((2, 300, f.size), dtype=complex)
    coeffs[:, :, band] = cF1, cG1
    F1, G1 = values_from_coefficients(coeffs, f)
    ref = {"pair": (F1 * G1).sum(axis=(1, 2)) * f.cell_volume,
           "cov": np.einsum("pjm,pjm->p", *points) * f.cell_volume}
    for key in ("pair", "cov"):
        scale = np.abs(ref[key]).max()
        assert scale > 0.0
        assert np.abs(stats[key] - ref[key]).max() <= 1e-12 * scale


def test_blocked_kernel_block_size_invariance(monkeypatch, bump_f, bump_g):
    """Blocks of 64 and of 256 paths (from the patched value budget on the
    1024-point grid) give bitwise the same per-path statistics."""
    data, mod = _config()
    counts = []
    sample = mc._sample_paths
    monkeypatch.setattr(mc, "_sample_paths",
                        lambda nu, seed, first, count: counts.append(count)
                        or sample(nu, seed, first, count))
    runs = []
    for block in (64, 256):
        monkeypatch.setattr(mc, "CPP_BLOCK_VALUES", block * bump_f.size)
        runs.append(run_cpp_paths(bump_f, bump_g, data, mod, 300, 77))
    assert counts == [64] * 4 + [44, 256, 44]
    a, b = runs
    assert np.array_equal(a["pair"], b["pair"])
    assert np.array_equal(a["cov"], b["cov"])


@pytest.mark.parametrize("A, B, K", [
    ([[1.0]], [[1.0]], [[0.7j]]),
    ([[1.0]], [[-0.8]], [[0.9j]]),
    ([[1.0, 0.0]], [[0.3, 1.0]], [[0.0, -1.0], [1.0, 0.0]]),
], ids=["A=B", "A!=B", "n2-rotation"])
def test_brownian_block_size_invariance(monkeypatch, bump_f, bump_g, A, B, K):
    """Blocks of 8 and of 37 paths (from the patched value budget) agree with
    the default one-block run to 1e-12 relative: every path draws from its
    own stream, and only the band contraction's rounding sees the block."""
    n_paths, steps = 100, 40
    default = brownian_pairing(bump_f, bump_g, A, B, K, n_paths, steps, 6)
    for block in (8, 37):
        monkeypatch.setattr(mc, "BROWNIAN_BLOCK_VALUES", block * steps)
        est = brownian_pairing(bump_f, bump_g, A, B, K, n_paths, steps, 6)
        for name in ("estimate", "stderr", "cov_estimate", "step_bias"):
            a, b = getattr(est, name), getattr(default, name)
            assert abs(a - b) <= 1e-12 * abs(b), (block, name)


def test_estimate_pairing_matches_spectral_small(bump_f, bump_g):
    data, mod = _config()
    est = estimate_pairing(bump_f, bump_g, data, mod, 12000, 2024)
    ref = spectral_pairing_value(bump_f, bump_g, data, mod)
    assert est.agrees_with(ref, 3.5)
    assert est.routes_agree(3.5)


def test_estimate_pairing_zero_phi_consistent_with_zero(bump_f, bump_g):
    data, _ = _config()
    mod0 = Modulator(phi=table_mod([0.0, 0.0, 0.0]))
    est = estimate_pairing(bump_f, bump_g, data, mod0, 2000, 6)
    assert est.estimate == 0.0 and est.cov_estimate == 0.0


def test_pairing_with_two_dimensional_jump_space():
    # d = 1, n = 2: A and B are row maps picking different coordinates
    nu = AtomsMeasure([[1.0, 0.5], [-0.8, 1.2]], [0.8, 0.6])
    data = make_data(nu, A=[[1.0, 0.0]], B=[[0.3, 1.0]], d=1, n=2)
    mod = Modulator(phi=table_mod([0.9, -0.6j]))
    f = gaussian_bump(40.0, 512, 1, center=[0.3], width=0.9)
    g = gaussian_bump(40.0, 512, 1, center=[-0.4], width=1.0)
    est = estimate_pairing(f, g, data, mod, 20000, 909)
    ref = spectral_pairing_value(f, g, data, mod)
    assert est.agrees_with(ref, 3.5)


def test_lp_isometry_small(bump_f):
    # the box integral of |f(x + A Y1)|^p is translation-invariant, so the
    # identity holds pathwise; the comparison needs a roundoff floor
    data, _ = _config()
    stats = run_cpp_paths(bump_f, bump_f, data, IDENTITY_MOD, 6000, 8,
                          fend_powers=(2.0, 3.0))
    for p in (2.0, 3.0):
        m, se = mean_and_se(stats["fend_pow"][p])
        target = lp_norm(bump_f, p) ** p
        assert abs(m - target) <= 3.5 * se + 1e-12 * target


def _full_grid_powers(f, band, coeffs, powers):
    """The oracle for mc._subgrid_powers: the powers of the full x-grid
    transform at every SUB_STRIDE-th point per axis, each point weighing
    L / (points kept per axis)."""
    full = np.zeros((coeffs.shape[0], f.size), dtype=complex)
    full[:, band] = coeffs
    sl = (slice(None),) + (slice(None, None, mc.SUB_STRIDE),) * f.d
    mods = np.abs(values_from_coefficients(full, f)[sl])
    dV = np.prod([L / n for L, n in zip(f.L, mods.shape[1:])])
    return {p: (mods ** p).sum(axis=tuple(range(1, f.d + 1))) * dV for p in powers}


def _block_coeffs(f, g, data, mod, n_paths, seed):
    band, blocks = mc._cpp_blocks(f, g, data, mod, n_paths, seed)
    (_, _, (cF1, cG1, *_)), = blocks
    return band, cF1, cG1


def test_subgrid_powers_fold_matches_full_grid_slice(bump_f, bump_g):
    powers = (1.5, 2.0, 3.0)
    data, mod = _config()
    band, cF1, cG1 = _block_coeffs(bump_f, bump_g, data, mod, 64, 5)   # 1-D, N = 1024
    cases = [(bump_f, band, cF1), (bump_f, band, cG1)]
    f2 = gaussian_bump(20.0, 32, 2, center=[0.5, -1.0], width=1.3)
    g2 = gaussian_bump(20.0, 32, 2, center=[-0.3, 0.8], width=1.5)
    data2 = make_data(AtomsMeasure([[1.0, 0.5], [-0.8, 1.2]], [0.8, 0.6]),
                      A=[[1.0, 0.3], [-0.2, 0.9]], B=[[0.3, 1.0], [-1.0, 0.2]])
    band2, cF2, cG2 = _block_coeffs(f2, g2, data2, Modulator(phi=table_mod([0.9, -0.6j])),
                                    40, 6)
    cases += [(f2, band2, cF2), (f2, band2, cG2)]
    # an N = 2 axis, where the one kept point weighs L, beside an N = 16 axis
    rng = np.random.default_rng(30)
    f3 = SampledField(d=2, L=(3.0, 12.0), N=(2, 16), values=np.zeros((2, 16)))
    band3 = np.arange(f3.size)
    cases.append((f3, band3, rng.normal(size=(5, 32)) + 1j * rng.normal(size=(5, 32))))
    for f, band, coeffs in cases:
        assert coeffs.shape[1] == band.size > 0
        got = mc._subgrid_powers(f, band, coeffs, powers)
        want = _full_grid_powers(f, band, coeffs, powers)
        for p in powers:
            assert np.all(want[p] > 0.0)
            assert np.abs(got[p] - want[p]).max() <= 1e-13 * want[p].max()


@pytest.mark.parametrize("N", [2, 4, 8])
def test_lp_powers_weigh_short_axes_by_box_length(N):
    # a near-constant field on L = 4: the box integral of |F1|^2 is about 4 at
    # every N, also where N < SUB_STRIDE leaves one point per axis
    L = 4.0
    f = SampledField(d=1, L=L, N=N, values=1.0 + 1e-3 * np.cos(2 * np.pi * np.arange(N) / N))
    data, _ = _config()
    stats = run_cpp_paths(f, f, data, IDENTITY_MOD, 20, 3, fend_powers=(2.0,))
    assert np.all(np.abs(stats["fend_pow"][2.0] - L) <= 0.01 * L)


def test_within_sigmas_roundoff_floor():
    assert within_sigmas(1e-17 + 1.0j, 0.0 + 0.01j, 0.0 + 1.001j)
    assert not within_sigmas(0.1 + 1.0j, 0.001 + 0.01j, 0.0 + 1.0j)


def test_burkholder_consequence(bump_f, bump_g):
    """(E|G1|^q)^{1/q} <= (p*-1) (E|g(x+B Y1)|^q)^{1/q}, aggregated over
    the box and sampled at the central point (3-standard-error slack)."""
    data, mod = _config()
    qs = (1.5, 3.0)
    stats = point_and_power_stats(bump_f, bump_g, data, mod, 20000, 555, qs)
    for q in qs:
        bound_q = max(q - 1.0, 1.0 / (q - 1.0)) ** q
        diff = stats["g1_pow"][q] - bound_q * stats["gend_pow"][q]
        m, se = mean_and_se(diff)
        assert m <= 3.0 * se, f"aggregated Burkholder bound violated at q={q}"
        diff_x0 = (np.abs(stats["g1_x0"]) ** q
                   - bound_q * np.abs(stats["gend_x0"]) ** q)
        m0, se0 = mean_and_se(diff_x0)
        assert m0 <= 3.0 * se0, f"pointwise Burkholder bound violated at q={q}"


# ---------------------------------------------------------------------------
# Brownian branch
# ---------------------------------------------------------------------------


def test_brownian_zero_K_gives_zero(bump_f, bump_g):
    est = brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[0.0]],
                           200, 50, 5, richardson=False)
    assert est.estimate == 0.0 and est.cov_estimate == 0.0


def test_brownian_matches_spectral_small(bump_f, bump_g):
    K = np.array([[0.7j]])
    est = brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], K, 1200, 300, 11,
                           richardson=False)
    ref = gaussian_spectral_value(bump_f, bump_g, [[1.0]], [[1.0]], K)
    assert within_sigmas(est.estimate, est.stderr, ref, 3.5)


def test_brownian_step_too_coarse_triggers(bump_f, bump_g):
    with pytest.raises(StepTooCoarse):
        brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[1.0]],
                         4000, 4, 17, richardson=True)


def test_brownian_gate_leaves_the_estimate_bitwise_unchanged(bump_f, bump_g):
    on = brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[0.7j]], 300, 60, 41)
    off = brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[0.7j]], 300, 60, 41,
                           richardson=False)
    assert (on.estimate, on.stderr, on.cov_estimate, on.cov_stderr) == \
        (off.estimate, off.stderr, off.cov_estimate, off.cov_stderr)
    assert off.step_bias is None and off.step_bias_se is None
    assert isinstance(on.step_bias, complex) and on.step_bias_se.imag > 0.0


def test_brownian_coarse_level_is_the_kernel_on_paired_increments():
    """The fused coarse level is a separate kernel pass at steps/2 on the fine
    increments summed in pairs, at the even fine points (d = 1, n = 2): diff
    is the fine pair minus that pass's pair."""
    rng = np.random.default_rng(12)
    kint = np.r_[0:32, -31:0][:, None]
    neg = np.r_[0, 62:0:-1]
    turns = 2.0 * np.pi / 40.0
    A, B = np.array([[1.0, 0.3]]), np.array([[-0.8, 0.5]])
    K = np.array([[0.3, 0.5j], [0.4, -0.2]])
    zA, zB = kint * turns @ A, kint * turns @ B
    P, steps = 5, 40
    fhat, ghat = rng.normal(size=(2, kint.shape[0])) + 1j * rng.normal(size=(2, kint.shape[0]))
    U = fhat * ghat * np.einsum("kj,kj->k", zA, zB @ K.T)
    GB = -1j * ghat[:, None] * (zB @ K.T)
    rest = (0.5 * (zA * zA).sum(axis=1), 0.5 * (zB * zB).sum(axis=1),
            U, GB, kint, neg, turns * A, turns * B, fhat)
    dW = rng.normal(scale=np.sqrt(1.0 / steps), size=(P, steps, 2))
    fine = brownian_accumulate(dW, *rest, coarse=True)
    plain = brownian_accumulate(dW, *rest)
    coarse = brownian_accumulate(dW[:, 0::2] + dW[:, 1::2], *rest)
    assert plain[2] is None and all(np.array_equal(a, b) for a, b in zip(fine[:2], plain[:2]))
    want = fine[0] - coarse[0]
    assert np.max(np.abs(fine[2] - want)) <= 1e-12 * np.max(np.abs(want))


def test_brownian_blocks_draw_the_per_path_streams(monkeypatch, bump_f, bump_g):
    """Path i's increments are, bitwise, path_stream(seed, i)'s normals times
    sqrt(2 var_scale / steps), in the first block and in the second."""
    seen = []
    kernel = mc.brownian_accumulate
    monkeypatch.setattr(mc, "brownian_accumulate",
                        lambda dW, *a, **k: seen.append(dW.copy()) or kernel(dW, *a, **k))
    seed, steps, n_paths = 88, 6, 12
    monkeypatch.setattr(mc, "BROWNIAN_BLOCK_VALUES", 8 * steps)
    brownian_pairing(bump_f, bump_g, [[1.0, 0.0]], [[0.3, 1.0]], [[0.0, -1.0], [1.0, 0.0]],
                     n_paths, steps, seed, richardson=False)
    assert [dW.shape for dW in seen] == [(8, steps, 2), (4, steps, 2)]
    dW = np.concatenate(seen)
    sig = np.sqrt(2.0 * 0.5 * (1.0 / steps))
    for i in range(n_paths):
        assert np.array_equal(dW[i], mc.path_stream(seed, i).standard_normal((steps, 2)) * sig)


@pytest.mark.parametrize("K", [1.0, 0.7j])
def test_brownian_gate_quiet_on_former_false_alarm_seeds(K):
    """The uncoupled coarse re-run fired on seeds 3, 16, 17 and 19 of 0-39 at
    200 paths x 200 steps with no step bias present (configs/gaussian_mc.json)."""
    f = gaussian_bump(40.0, 1024, 1, center=[0.4], width=0.9)
    g = gaussian_bump(40.0, 1024, 1, center=[-0.2], width=1.0)
    for seed in (3, 16, 17, 19):
        brownian_pairing(f, g, [[1.0]], [[1.0]], [[K]], 200, 200, seed, var_scale=0.5)


def test_brownian_bad_steps_named(bump_f, bump_g):
    with pytest.raises(ValueError, match="steps = 5"):
        brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[1.0]], 10, 5, 1)
    for steps, richardson in ((4.0, True), (3.0, False), (2.5, False), (1, False)):
        with pytest.raises(ValueError, match=f"steps = {steps} is not an integer >= 2"):
            brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[1.0]], 10, steps, 1,
                             richardson=richardson)
    assert brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[1.0]], 10, 5, 1,
                            richardson=False).steps == 5


def test_brownian_bad_var_scale_named_before_sampling(monkeypatch, bump_f, bump_g):
    # a NaN var_scale used to give a NaN estimate and raise nothing
    monkeypatch.setattr(mc, "_path_streams", lambda *a: pytest.fail("sampled a path"))
    for var_scale in (float("nan"), -0.5, 0.0, float("inf"), "abc"):
        with pytest.raises(ValueError, match=f"var_scale = {var_scale!r} is not a finite"):
            brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[1.0]], 10, 4, 1,
                             var_scale=var_scale)


def test_criterion_9_gate_catches_scaled_brownian_increments(monkeypatch):
    """Planted fault for criterion 9: G's Brownian increments (GB) scaled by 1.1.

    Criterion 9's fields, seeds and both K, at 2000 paths x 50 steps with the
    step-bias gate on: over seeds 31-50 the planted runs land 4.6 to 7.5 sigma
    from the spectral value (all 40 caught) and the unplanted ones 0.72 sigma
    in the median, 1.83 at most (none rejected).  The same with the kernel
    that kept the (K, P) Ito sums and with the per-path pairing kernel: the
    80 sigma values agree to 3e-14.
    """
    f = gaussian_bump(40.0, 1024, 1, center=[0.4], width=0.9)
    g = gaussian_bump(40.0, 1024, 1, center=[-0.2], width=1.0)
    kernel = mc.brownian_accumulate

    def estimates():
        for k, K in enumerate((1.0, 0.7j)):
            est = brownian_pairing(f, g, [[1.0]], [[1.0]], [[K]], 2000, 50, 31 + k,
                                   var_scale=0.5)
            yield est, gaussian_spectral_value(f, g, [[1.0]], [[1.0]], [[K]], var_scale=0.5)

    assert all(within_sigmas(est.estimate, est.stderr, ref, 3.0) for est, ref in estimates())
    monkeypatch.setattr(mc, "brownian_accumulate",
                        lambda dW, rA, rB, U, GB, *a, **k: kernel(dW, rA, rB, U, 1.1 * GB, *a, **k))
    assert not any(within_sigmas(est.estimate, est.stderr, ref, 3.0) for est, ref in estimates())


def test_criterion_9_gate_catches_transposed_K_on_a_rotation(monkeypatch):
    """Planted fault for criterion 9 that its n = 1 cases cannot see: K
    transposed in the Brownian kernel.

    The n = 2 case d = 1, A = (1, 0), B = (0.3, 1), K the 90-degree rotation,
    on criterion 9's fields.  K reaches the kernel through GB (rows K B^T xi)
    and U ((A^T xi, K B^T xi)); with K^T = -K both flip sign, and so does the
    pairing.  At 400 paths x 40 steps with the step-bias gate on, over seeds
    0-199 the planted runs land 26 sigma or more from the spectral value
    (median 29; all 200 outside 6) and the unplanted ones 0.55 sigma in the
    median, 2.2 at most (none outside 3).  The same with the kernel that kept
    the (K, P) Ito sums and with the per-path pairing kernel: the 400 sigma
    values agree to 2e-14.
    """
    f = gaussian_bump(40.0, 1024, 1, center=[0.4], width=0.9)
    g = gaussian_bump(40.0, 1024, 1, center=[-0.2], width=1.0)
    A, B = [[1.0, 0.0]], [[0.3, 1.0]]
    K = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(K.T, -K)
    ref = gaussian_spectral_value(f, g, A, B, K, var_scale=0.5)
    est = brownian_pairing(f, g, A, B, K, 400, 40, 71, var_scale=0.5)
    assert within_sigmas(est.estimate, est.stderr, ref, 3.0)
    kernel = mc.brownian_accumulate
    monkeypatch.setattr(mc, "brownian_accumulate",
                        lambda dW, rA, rB, U, GB, *a, **k: kernel(dW, rA, rB, -U, -GB, *a, **k))
    est = brownian_pairing(f, g, A, B, K, 400, 40, 71, var_scale=0.5)
    assert not within_sigmas(est.estimate, est.stderr, ref, 6.0)


@pytest.mark.parametrize("n_paths", [0, 1, 2.5])
@pytest.mark.parametrize("entry", ["run_cpp_paths", "estimate_pairing", "brownian_pairing"])
def test_mc_entry_points_reject_fewer_than_two_paths(bump_f, bump_g, entry, n_paths):
    # a mean and a standard error need two paths, and a path count is an integer
    data, mod = _config()
    with pytest.raises(ValueError, match=f"n_paths = {n_paths}"):
        if entry == "brownian_pairing":
            brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[0.7j]], n_paths, 4, 1)
        else:
            getattr(mc, entry)(bump_f, bump_g, data, mod, n_paths, 1)


@pytest.mark.parametrize("seed", [-1, 1.5, 2**64])
@pytest.mark.parametrize("entry", ["run_cpp_paths", "check_subordination", "brownian_pairing"])
def test_mc_entry_points_reject_bad_seeds(bump_f, bump_g, entry, seed):
    # the seed keys uint64 streams: 1.5 used to run seed 1's, -1 to overflow
    data, mod = _config()
    with pytest.raises(ValueError, match=f"seed = {seed}"):
        if entry == "brownian_pairing":
            brownian_pairing(bump_f, bump_g, [[1.0]], [[1.0]], [[0.7j]], 10, 4, seed)
        elif entry == "check_subordination":
            check_subordination(bump_f, bump_g, data, mod, 10, seed, [0.3])
        else:
            run_cpp_paths(bump_f, bump_g, data, mod, 10, seed)


def test_largest_seed_runs(bump_f, bump_g):
    data, mod = _config()
    stats = run_cpp_paths(bump_f, bump_g, data, mod, 4, 2**64 - 1)
    assert np.array_equal(stats["njumps"], [simulate_cpp(data.nu, 2**64 - 1, i).times.size
                                            for i in range(4)])


@pytest.mark.parametrize("x, error, name", [
    ([0.3, 0.1], ShapeMismatch, "x has 2 coordinates"),
    ([], ShapeMismatch, "x has 0 coordinates"),
    ([np.nan], ValueError, "x = \\[nan\\]"),
    ([-np.inf], ValueError, "x = \\[-inf\\]"),
])
def test_check_subordination_names_a_bad_point(monkeypatch, bump_f, bump_g, x, error, name):
    data, mod = _config()
    monkeypatch.setattr(mc, "_sample_paths",
                        lambda *a: pytest.fail("sampled before x was checked"))
    with pytest.raises(error, match=name):
        check_subordination(bump_f, bump_g, data, mod, 10, 1, x)


@pytest.mark.parametrize("n_paths", [0, -5, 2.5])
def test_check_subordination_names_a_bad_path_count(monkeypatch, bump_f, bump_g, n_paths):
    # 0 and -5 used to pass on no paths, 2.5 to raise range's TypeError
    data, mod = _config()
    monkeypatch.setattr(mc, "_sample_paths",
                        lambda *a: pytest.fail("sampled before n_paths was checked"))
    with pytest.raises(ValueError, match="n_paths"):
        check_subordination(bump_f, bump_g, data, mod, n_paths, 1, [0.3])


def test_check_subordination_accepts_one_path(bump_f, bump_g):
    # the check is pathwise, so one path is a complete run
    data, mod = _config()
    _, jumps, _ = check_subordination(bump_f, bump_g, data, mod, 1, 4, [0.3])
    assert jumps == simulate_cpp(data.nu, 4, 0).times.size


def test_criterion_7_gate_catches_scaled_jump_weights(monkeypatch):
    """Planted fault for criterion 7: the kernel's phi_atoms scaled by 1.1,
    which moves the largest |phi| from 0.918 to 1.010, so |dG| > |dF| at
    that atom's jumps.  At seeds 777-796 the planted run failed 20 times in
    20 and the unplanted run never; a scale of 1.02 keeps |phi| < 1, and
    the exact per-jump rule rightly lets it pass."""
    assert checks.criterion_7_differential_subordination(50).passed
    kernel = mc.cpp_pair_coeffs
    monkeypatch.setattr(mc, "cpp_pair_coeffs", lambda *a: kernel(*a[:4], 1.1 * a[4], *a[5:]))
    assert not checks.criterion_7_differential_subordination(50).passed


def test_criterion_8_gate_catches_scaled_endpoint(monkeypatch):
    """Planted fault for criterion 8: the endpoint coefficients cF1 scaled by
    1.001.  The isometry holds path by path, so its standard error is
    roundoff and a 0.1 % fault in F1 moves every power by 0.15-0.3 %."""
    assert checks.criterion_8_lp_isometry(50).passed
    kernel = mc.cpp_pair_coeffs

    def planted(*args):
        cF1, *rest = kernel(*args)
        return (1.001 * cF1, *rest)

    monkeypatch.setattr(mc, "cpp_pair_coeffs", planted)
    assert not checks.criterion_8_lp_isometry(50).passed


def test_benchmark_calls_still_bind(bump_f, bump_g):
    """The calls perfbench makes into the library, and the result keys and
    argument names its workloads and tracer read."""
    data, _ = _config()
    sig = inspect.signature
    sig(run_cpp_paths).bind(bump_f, bump_f, data, IDENTITY_MOD, 10, 1, fend_powers=(2.0,))
    sig(estimate_pairing).bind(bump_f, bump_g, data, IDENTITY_MOD, 10, 1)
    sig(brownian_pairing).bind(bump_f, bump_g, [[1.0]], [[1.0]], [[0.7j]], 10, 4, 1,
                               var_scale=0.5, richardson=True)
    spec = SymbolSpec(variant="q_form", data=data, mod=IDENTITY_MOD)
    sig(approximate).bind(data, IDENTITY_MOD, 0.01, zeta_max=4.5)
    sig(symbol_integral).bind(data, IDENTITY_MOD, np.ones((3, 1)))
    sig(evaluate_grid).bind(spec, L=40.0, N=8)
    sig(norm_probe).bind(evaluate_grid(spec, L=40.0, N=8), 2.0, trials=4, seed=1,
                         ascent_steps=2)
    for fn, names in ((run_cpp_paths, {"n_paths"}), (brownian_pairing, {"n_paths"}),
                      (mc.cpp_pair_coeffs, {"times", "offsets", "fhat"}),
                      (brownian_accumulate, {"dW", "fhat"}),
                      (psi, {"data", "zeta"}), (psi_tilde, {"data", "zeta"}),
                      (cross_form, {"data", "zeta1"}), (panel_rule, {"edges"})):
        assert names <= set(sig(fn).parameters), fn.__name__
    stats = run_cpp_paths(bump_f, bump_f, data, IDENTITY_MOD, 4, 1, fend_powers=(2.0,))
    assert stats["njumps"].shape == (4,) and set(stats["fend_pow"]) == {2.0}
