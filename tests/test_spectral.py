"""Transforms, multiplier application, pairing, norms, semigroup, probing."""

import numpy as np
import pytest

from levymult import (
    AtomsMeasure,
    SampledField,
    SymbolSpec,
    apply_multiplier,
    drift_reduce,
    evaluate_grid,
    gaussian_bump,
    lp_norm,
    make_data,
    norm_probe,
    p_star_minus_one,
    pairing,
    psi,
    semigroup_eval,
    transform_forward,
    transform_inverse,
)
from levymult.errors import GridMismatch
from levymult.grids import Grid
from levymult.spectral import (
    _bump_coeffs,
    _plane_wave,
    _unit_roots,
    values_from_coefficients,
)
from levymult.symbols import symbol_grid_from_values

from _probe_oracle import probe_one_p


def test_forward_transform_gaussian_closed_form():
    f = gaussian_bump(40.0, 1024, 1)
    fhat = transform_forward(f)
    xi = f.xi.ravel()
    exact = np.sqrt(2.0 * np.pi) * np.exp(-xi**2 / 2.0)
    assert np.max(np.abs(fhat - exact)) < 1e-8


def test_transform_round_trip():
    rng = np.random.default_rng(0)
    f = gaussian_bump(40.0, 512, 1, center=[1.0], width=0.7,
                      phase_freq=[2.0 * np.pi / 40.0 * 3])
    rt = transform_inverse(transform_forward(f), f)
    scale = np.abs(f.values).max()
    assert np.max(np.abs(rt.values - f.values)) < 1e-12 * scale
    # and in 2-D
    f2 = gaussian_bump(20.0, 64, 2, center=[0.5, -1.0], width=0.8)
    rt2 = transform_inverse(transform_forward(f2), f2)
    assert np.max(np.abs(rt2.values - f2.values)) < 1e-12


def test_zero_field_transforms_to_zero():
    f = SampledField(d=1, L=(40.0,), N=(256,), values=np.zeros(256))
    assert np.all(transform_forward(f) == 0.0)


def test_power_of_two_enforced():
    with pytest.raises(ValueError):
        SampledField(d=1, L=(40.0,), N=(257,), values=np.zeros(257))


@pytest.mark.parametrize("d,L,N,field", [
    (1, -4.0, 8, "L"), (1, 0.0, 8, "L"), (1, np.inf, 8, "L"), (1, np.nan, 8, "L"),
    (2, (20.0, 40.0, 10.0), 8, "L"), (2, 20.0, (8, 8, 8), "N"), (1, 40.0, 0, "N"),
])
def test_sampled_field_rejects_bad_box(d, L, N, field):
    with pytest.raises(ValueError, match=f"{field}"):
        SampledField(d=d, L=L, N=N, values=np.zeros((8,) * d))


@pytest.mark.parametrize("d,N", [(2, 2**32), (3, 2**22), (2, (2**40, 2**23))])
def test_grid_rejects_more_points_than_int64_indexes(d, N):
    # np.prod of these counts wraps to 0 in int64
    with pytest.raises(ValueError, match="N ="):
        Grid(d, 40.0, N)


def test_grid_size_is_exact_up_to_int64():
    assert Grid(2, 40.0, 2**31).size == 2**62
    assert Grid(3, 40.0, (2**40, 2**20, 2**2)).size == 2**62


def test_apply_multiplier_identity_and_zero(bump_f):
    ones = symbol_grid_from_values(np.ones(bump_f.N[0]), bump_f)
    out = apply_multiplier(ones, bump_f)
    assert np.max(np.abs(out.values - bump_f.values)) < 1e-12
    zeros = symbol_grid_from_values(np.zeros(bump_f.N[0]), bump_f)
    assert np.max(np.abs(apply_multiplier(zeros, bump_f).values)) == 0.0


def test_p2_contraction_and_real_output(mixed_atoms_data, complex_phi, single_atom_data):
    # ||Mf||_2 <= max|m| ||f||_2 on the grid; a Hermitian symbol keeps real input real
    grid = evaluate_grid(SymbolSpec(variant="q_form", data=mixed_atoms_data, mod=complex_phi),
                         L=40.0, N=512)
    f = gaussian_bump(40.0, 512, 1, center=[0.4], width=0.8)
    assert lp_norm(apply_multiplier(grid, f), 2.0) <= grid.max_abs * lp_norm(f, 2.0) * (1 + 1e-12)
    hermitian = evaluate_grid(SymbolSpec(variant="q_form", data=single_atom_data), L=40.0, N=512)
    fr = gaussian_bump(40.0, 512, 1, center=[-0.2], width=1.1)
    assert np.max(np.abs(apply_multiplier(hermitian, fr).values.imag)) < 1e-10


def test_apply_multiplier_grid_mismatch(bump_f):
    small = symbol_grid_from_values(np.ones(256), Grid(1, 40.0, 256))
    with pytest.raises(GridMismatch):
        apply_multiplier(small, bump_f)


def test_riesz_apply_matches_direct_quadrature():
    """Oracle: (2 pi)^-2 I m(xi) fhat(xi) e^{-i xi.x} dxi on a dense grid.

    The bump carries a phase modulation so its spectrum sits away from
    the symbol's kink at the origin; the output then decays fast and the
    periodic grid agrees with the free-space quadrature to 1e-6.
    """
    L, N = 20.0, 256
    omega = np.array([12, 9]) * 2.0 * np.pi / L
    width = 1.2
    f = gaussian_bump(L, N, 2, width=width, phase_freq=omega)
    grid = evaluate_grid(SymbolSpec(variant="preset", preset="riesz", d=2, j=0, k=1),
                         L=L, N=N)
    out = apply_multiplier(grid, f)

    # modulation e^{i omega x} shifts the spectrum to -omega in the
    # e^{+i(xi,x)} forward convention; Simpson weights give ~1e-8 quadrature
    u = np.linspace(-7.5, 7.5, 1201)
    du = u[1] - u[0]
    w1 = np.ones(u.size)
    w1[1:-1:2], w1[2:-1:2] = 4.0, 2.0
    w1 *= du / 3.0
    U1, U2 = np.meshgrid(u - omega[0], u - omega[1], indexing="ij")
    m = -2.0 * U1 * U2 / (U1**2 + U2**2)
    fhat = 2.0 * np.pi * width**2 * np.exp(
        -width**2 * ((U1 + omega[0]) ** 2 + (U2 + omega[1]) ** 2) / 2.0)
    W = np.outer(w1, w1)
    axes = f.space_axes
    for ix, iy in ((128, 128), (140, 120), (100, 150)):
        x1, x2 = axes[0][ix], axes[1][iy]
        val = np.sum(W * m * fhat * np.exp(-1j * (U1 * x1 + U2 * x2))) \
            / (2.0 * np.pi) ** 2
        assert out.values[ix, iy] == pytest.approx(val, abs=1e-6)


def test_riesz_apply_centered_gaussian_closed_form():
    """For the centered Gaussian the output has the closed form

        2 (x1 x2 / r^2) [2 (1 - e^{-r^2/2}) / r^2 - e^{-r^2/2}],

    which decays only like r^-2, so box periodization limits the grid
    accuracy to the 1e-3 scale at L = 20."""
    L, N = 20.0, 256
    f = gaussian_bump(L, N, 2)
    grid = evaluate_grid(SymbolSpec(variant="preset", preset="riesz", d=2, j=0, k=1),
                         L=L, N=N)
    out = apply_multiplier(grid, f)
    axes = f.space_axes
    for ix, iy in ((140, 120), (100, 150), (150, 150)):
        x1, x2 = axes[0][ix], axes[1][iy]
        r2 = x1 * x1 + x2 * x2
        want = 2.0 * x1 * x2 / r2 * (2.0 * (1.0 - np.exp(-r2 / 2.0)) / r2
                                     - np.exp(-r2 / 2.0))
        assert out.values[ix, iy] == pytest.approx(want, abs=2e-3)


def test_pairing_identity_symbol(bump_f, bump_g):
    ones = symbol_grid_from_values(np.ones(bump_f.N[0]), bump_f)
    res = pairing(ones, bump_f, bump_g)
    direct = np.sum(bump_f.values * bump_g.values) * bump_f.cell_volume
    assert res.spatial == pytest.approx(direct, rel=1e-12)
    assert res.spectral == pytest.approx(res.spatial, rel=1e-10)


def test_pairing_riesz_two_routes_agree():
    f = gaussian_bump(20.0, 256, 2)
    g = gaussian_bump(20.0, 256, 2, center=[0.7, -0.5], width=1.2)
    grid = evaluate_grid(SymbolSpec(variant="preset", preset="riesz", d=2, j=0, k=1),
                         L=20.0, N=256)
    res = pairing(grid, f, g)
    assert abs(res.spatial) > 1e-3
    assert abs(res.spatial - res.spectral) <= 1e-10 * abs(res.spatial)


def test_pairing_parity_of_antisymmetric_symbol():
    """Parity oracle for the odd, conjugate-symmetric stable symbol:
    against one real even bump the pairing vanishes identically (so it is
    purely imaginary only vacuously); against real inputs it is real; a
    complex-modulated input produces a genuine imaginary part."""
    grid = evaluate_grid(SymbolSpec(variant="stable", alpha=0.5), L=40.0, N=1024)
    f = gaussian_bump(40.0, 1024, 1)
    res = pairing(grid, f, f)
    assert abs(res.spatial) < 1e-14

    g = gaussian_bump(40.0, 1024, 1, center=[1.3], width=0.8)
    res_fg = pairing(grid, f, g)
    assert abs(res_fg.spatial) > 1e-3
    assert abs(res_fg.spatial.imag) < 1e-12 * abs(res_fg.spatial.real)

    h = gaussian_bump(40.0, 1024, 1, center=[0.5], width=0.8,
                      phase_freq=[4.0 * np.pi / 40.0])
    res_fh = pairing(grid, f, h)
    assert abs(res_fh.spatial.imag) > 1e-3


def test_lp_norm_values():
    f = gaussian_bump(40.0, 1024, 1)
    assert lp_norm(f, 2.0) == pytest.approx(np.pi ** 0.25, rel=1e-12)
    # scaling property
    cf = SampledField(d=1, L=f.L, N=f.N, values=(-2.0 + 1.5j) * f.values)
    assert lp_norm(cf, 3.0) == pytest.approx(abs(-2.0 + 1.5j) * lp_norm(f, 3.0),
                                             rel=1e-12)
    # unit-height box of measure one
    x = f.space_axes[0]
    box = SampledField(d=1, L=f.L, N=f.N, values=(np.abs(x) <= 0.5).astype(complex))
    w = box.values.real.sum() * f.cell_volume
    for p in (1.5, 2.0, 4.0):
        assert lp_norm(box, p) == pytest.approx(w ** (1.0 / p), rel=1e-12)


def test_semigroup_zero_time_recovers_field_off_grid():
    data = make_data(AtomsMeasure([[1.0]], [1.0]))
    f = gaussian_bump(40.0, 1024, 1)
    for x in (0.1234, -3.456):
        got = semigroup_eval(f, data.A, data, 0.0, [x])
        assert got == pytest.approx(np.exp(-x**2 / 2.0), abs=1e-8)


def test_semigroup_poisson_series():
    # pure-jump form via drift reduction: P_s f(x) = e^{-s} sum s^k/k! f(x+k)
    data = make_data(AtomsMeasure([[1.0]], [1.0]))
    reduced, _ = drift_reduce(data)
    f = gaussian_bump(40.0, 1024, 1)
    import math
    s, x = 0.8, -0.37
    series = sum(np.exp(-s) * s**k / math.factorial(k) * np.exp(-(x + k) ** 2 / 2.0)
                 for k in range(31))
    got = semigroup_eval(f, reduced.A, reduced, s, [x])
    assert got == pytest.approx(series, abs=1e-8)


def test_semigroup_bounded_by_coefficient_mass(mixed_atoms_data):
    f = gaussian_bump(40.0, 512, 1)
    fhat = transform_forward(f)
    dxi = 2.0 * np.pi / 40.0
    bound = np.sum(np.abs(fhat)) * dxi / (2.0 * np.pi)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-5, 5)
        s = rng.uniform(0, 1)
        assert abs(semigroup_eval(f, mixed_atoms_data.A, mixed_atoms_data, s, [x])) \
            <= bound + 1e-12


def _semigroup_multiplier(data, A, grid, s):
    """The multiplier e^{s psi(-A^T xi)} tabulated on the grid (|.| <= 1)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return symbol_grid_from_values(np.exp(s * np.atleast_1d(psi(data, -(grid.xi @ A)))), grid)


def test_semigroup_additivity(single_atom_data):
    f = gaussian_bump(40.0, 1024, 1)
    x = np.array([0.21])
    p4 = apply_multiplier(_semigroup_multiplier(single_atom_data, single_atom_data.A,
                                                f, 0.4), f)
    comp = semigroup_eval(p4, single_atom_data.A, single_atom_data, 0.3, x)
    direct = semigroup_eval(f, single_atom_data.A, single_atom_data, 0.7, x)
    assert comp == pytest.approx(direct, abs=1e-10)


# ---------------------------------------------------------------------------
# norm probing
# ---------------------------------------------------------------------------


def test_p_star():
    assert p_star_minus_one(2.0) == 1.0
    assert p_star_minus_one(4.0) == 3.0
    assert p_star_minus_one(1.25) == 4.0


def test_probe_identity_symbol_ratio_one():
    ones = symbol_grid_from_values(np.ones(512), Grid(1, 40.0, 512))
    rep = norm_probe(ones, 3.0, trials=40, seed=0, ascent_steps=20)
    assert rep.best_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_probe_p2_bounded_by_sup_of_symbol(single_atom_data):
    grid = evaluate_grid(SymbolSpec(variant="q_form", data=single_atom_data),
                         L=40.0, N=512)
    rep = norm_probe(grid, 2.0, trials=60, seed=1, ascent_steps=60)
    assert rep.best_ratio <= grid.max_abs * (1.0 + 1e-9)
    assert rep.passed


def test_probe_deterministic_for_fixed_seed(single_atom_data):
    grid = evaluate_grid(SymbolSpec(variant="q_form", data=single_atom_data),
                         L=40.0, N=256)
    a = norm_probe(grid, 3.0, trials=30, seed=42, ascent_steps=25)
    b = norm_probe(grid, 3.0, trials=30, seed=42, ascent_steps=25)
    assert a.best_ratio == b.best_ratio
    assert a.best_descriptor == b.best_descriptor


@pytest.mark.parametrize("N, d, trials, preset", [
    pytest.param(4096, 1, 37, None, id="4096-1-37"),
    pytest.param(64, 2, 37, "riesz", id="64-2-37"),
    pytest.param(1024, 1, 1, None, id="1024-1-1"),
    pytest.param(64, 2, 37, "log", id="64-2-37-log"),
])
def test_probe_shared_pass_matches_per_p_calls_and_oracle(N, d, trials, preset,
                                                          single_atom_data):
    """One trial pass for all p gives the reports of per-p calls and of the
    old one-trial-at-a-time loop, whose ascent transforms every proposal in
    full.  On 4096 points and on the 64 x 64 grids a batch holds 16 trials,
    so 37 trials fill batches of 16, 16 and 5.  On the log-ratio preset the
    ascent accepts 7 and 13 steps at p = 2 and 4, so the rank-one fields of
    `norm_probe` are checked against full transforms in 2-D."""
    spec = SymbolSpec(variant="q_form", data=single_atom_data) if d == 1 else \
        SymbolSpec(variant="preset", preset=preset, d=2)
    grid = evaluate_grid(spec, L=40.0 if d == 1 else 20.0, N=N)
    ps, steps = (1.25, 2.0, 4.0), 25
    shared = norm_probe(grid, ps, trials=trials, seed=9, ascent_steps=steps)
    assert [r.p for r in shared] == list(ps)
    for rep in shared:
        single = norm_probe(grid, rep.p, trials=trials, seed=9, ascent_steps=steps)
        oracle = probe_one_p(grid, rep.p, trials=trials, seed=9, ascent_steps=steps)
        for other in (single, oracle):
            assert rep.best_descriptor == other.best_descriptor
            assert rep.best_ratio == pytest.approx(other.best_ratio, rel=1e-15, abs=0.0)
            assert (rep.bound, rep.passed, rep.trials) == (other.bound, other.passed,
                                                           other.trials)


def _bump_by_hand(rng, grid):
    """transform_forward of the gaussian_bump built from _bump_coeffs' draws."""
    Lr = np.asarray(grid.L)
    center = rng.uniform(-0.125, 0.125, size=grid.d) * Lr
    width = rng.uniform(0.3, 2.0)
    omega = rng.integers(-8, 9, size=grid.d) * 2.0 * np.pi / Lr
    return transform_forward(gaussian_bump(grid.L, grid.N, grid.d, center=center,
                                           width=width, phase_freq=omega))


@pytest.mark.parametrize("d, L, N", [(1, 40.0, 1024), (1, 1.0, 64), (1, 40.0, 4096),
                                     (2, 20.0, 64), (3, 20.0, 16)])
def test_bump_coeffs_per_axis_equal_the_full_grid_transform(d, L, N):
    """Bitwise in 1-D, where the per-axis expressions are the full-grid
    ones; within roundoff of the largest coefficient in 2-D and 3-D."""
    grid = Grid(d, L, N)
    for key in range(20):
        got = _bump_coeffs(np.random.default_rng(np.random.Philox(key=key)), grid)
        want = _bump_by_hand(np.random.default_rng(np.random.Philox(key=key)), grid)
        assert got.shape == tuple(grid.N)
        if d == 1:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("d, N, ks", [
    (1, 64, [(0,), (1,), (-3,), (-32,)]),
    (2, (16, 32), [(0, 0), (1, 0), (0, 1), (-5, 3), (-8, -16), (7, -1)]),
])
def test_plane_wave_equals_the_transform_of_a_unit_coefficient(d, N, ks):
    grid = Grid(d, 20.0, N)
    roots = _unit_roots(grid)
    for k in ks:
        idx = np.ravel_multi_index(tuple(kk % n for kk, n in zip(k, grid.N)), grid.N)
        unit = np.zeros(grid.size, dtype=complex)
        unit[idx] = 1.0
        want = values_from_coefficients(unit, grid)
        assert np.max(np.abs(_plane_wave(grid, roots, idx) - want)) <= 1e-15 * grid.dxi_norm


@pytest.mark.parametrize("kwargs, name", [
    ({"p": 1.0}, "p"), ({"p": 0.5}, "p"), ({"p": float("nan")}, "p"),
    ({"p": float("inf")}, "p"), ({"p": (2.0, 1.0)}, "p"), ({"p": ()}, "p"),
    ({"trials": 0}, "trials"), ({"ascent_steps": -1}, "ascent_steps"),
    ({"trials": 2.5}, "trials"), ({"ascent_steps": 1.5}, "ascent_steps"),
    ({"seed": 1.5}, "seed"), ({"seed": -1}, "seed"), ({"seed": 2**64}, "seed"),
])
def test_probe_rejects_bad_inputs_by_name(kwargs, name):
    grid = symbol_grid_from_values(np.ones(64), Grid(1, 40.0, 64))
    args = {"p": 2.0, "trials": 4, "ascent_steps": 2, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} = "):
        norm_probe(grid, args.pop("p"), **args)


def test_probe_raises_when_no_trial_has_a_finite_ratio():
    """At p = 500 on a unit box the one trig-poly trial overflows |f|^p
    and |Mf|^p, so its ratio is NaN and no trial can start the ascent."""
    grid = symbol_grid_from_values(np.ones(64), Grid(1, 1.0, 64))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="no trial gave a finite"):
        norm_probe(grid, 500.0, trials=1, ascent_steps=3)
