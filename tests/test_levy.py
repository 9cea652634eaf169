"""Measure validation, exponent evaluation, approximation, drift handling."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from levymult import (
    AtomsMeasure,
    IDENTITY_MOD,
    Modulator,
    RadialProductMeasure,
    SphericalMeasure,
    StableMeasure,
    approximate,
    ball_mod,
    constant_mod,
    cross_form,
    drift_reduce,
    halfspace_mod,
    make_data,
    psi,
    psi_tilde,
    sign_mod,
    stable_coefficient,
    symbol_integral,
    symbol_q,
    symbol_stable,
    table_mod,
    validate,
)
from levymult.errors import (
    AtomAtOrigin,
    EpsTooLarge,
    MeasureValidationError,
    ModulatorExceedsOne,
    ModulatorUndefinedOnSupport,
    NonIntegrableMeasure,
    RequiresFiniteMeasure,
    ShapeMismatch,
)
from levymult import levy
from levymult.levy import exponents
from levymult.quadrature import radial_edges

ALPHA = 0.5


def stable_data(alpha=ALPHA):
    return make_data(StableMeasure(alpha, 1), A=[[-1.0]], B=[[1.0]])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_single_atom():
    data = make_data(AtomsMeasure([[1.0]], [1.0]))
    assert validate(data) is data


def test_validate_rejects_origin_atom():
    with pytest.raises(AtomAtOrigin):
        validate(make_data(AtomsMeasure([[0.0]], [1.0])))


def test_validate_rejects_nonintegrable_profile():
    # rho(r) = r^-3 diverges at the origin against min(r^2, 1)
    measure = RadialProductMeasure(2.0, 1.0, [[1.0]], [1.0])
    with pytest.raises(NonIntegrableMeasure):
        validate(make_data(measure))


@pytest.mark.parametrize("alpha, coeff, error", [
    (math.nan, 1.0, NonIntegrableMeasure),
    (0.0, 1.0, NonIntegrableMeasure),
    (2.0, 1.0, NonIntegrableMeasure),
    (0.5, -1.0, MeasureValidationError),   # a negative jump measure
    (0.5, math.inf, MeasureValidationError),
])
def test_validate_rejects_bad_radial_profile(alpha, coeff, error):
    measure = RadialProductMeasure(alpha, coeff, [[1.0], [-1.0]], [1.0, 1.0])
    with pytest.raises(error):
        validate(make_data(measure))


def test_validate_rejects_shape_mismatch():
    data = make_data(AtomsMeasure([[1.0]], [1.0]))
    bad = make_data(data.nu, A=[[1.0, 0.0]], B=[[1.0, 0.0]], d=1, n=1)
    with pytest.raises(ShapeMismatch):
        validate(bad)


def test_validate_rejects_oversized_modulator():
    data = make_data(AtomsMeasure([[1.0]], [1.0]))
    with pytest.raises(ModulatorExceedsOne):
        validate(data, Modulator(phi=table_mod([1.2])))


def test_validate_rejects_nonunit_sphere_atom():
    mu = SphericalMeasure([[1.0 + 1e-6]], [1.0])
    with pytest.raises(MeasureValidationError):
        validate(make_data(AtomsMeasure([[1.0]], [1.0]), mu=mu))


_RADIAL = dict(alpha=0.5, coeff=1.0, directions=[[1.0], [-1.0]], dir_weights=[1.0, 1.0])


@pytest.mark.parametrize("field, kwargs, mod", [
    ("atoms", dict(nu=AtomsMeasure([[math.nan]], [1.0])), None),
    ("atoms", dict(nu=AtomsMeasure([[math.inf]], [1.0])), None),
    ("gamma", dict(gamma=[math.nan]), None),
    ("A", dict(A=[[math.nan]]), None),
    ("B", dict(B=[[math.nan]]), None),
    ("sphere directions", dict(mu=SphericalMeasure([[math.nan]], [1.0])), None),
    ("sphere weights", dict(mu=SphericalMeasure([[1.0]], [math.nan])), None),
    ("sphere weights", dict(mu=SphericalMeasure([[1.0]], [math.inf])), None),
    ("radial directions", dict(nu=RadialProductMeasure(
        **{**_RADIAL, "directions": [[math.nan], [-1.0]]})), None),
    ("radial dir_weights", dict(nu=RadialProductMeasure(
        **{**_RADIAL, "dir_weights": [math.nan, 1.0]})), None),
    ("phi", {}, Modulator(phi=table_mod([math.nan]))),
    ("phi", {}, Modulator(phi=constant_mod(math.nan))),
])
def test_validate_names_nonfinite_data(field, kwargs, mod):
    # NaN passes a bare `x > bound` or `x < 0` test; each is named instead
    args = {"nu": AtomsMeasure([[1.0]], [1.0]), **kwargs}
    with pytest.raises(MeasureValidationError, match=field):
        validate(make_data(**args), mod)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_zero_frequency_vanishes(mixed_atoms_data, complex_phi):
    assert psi(mixed_atoms_data, [0.0]) == 0.0
    assert psi_tilde(mixed_atoms_data, complex_phi, [0.0]) == 0.0


def test_psi_single_atom_hand_value():
    # atom exactly on the unit sphere is compensated: e^{i pi} - 1 - i pi
    data = make_data(AtomsMeasure([[1.0]], [1.0]))
    val = psi(data, [np.pi])
    assert val == pytest.approx(-2.0 - 1j * np.pi, abs=1e-14)


def test_psi_stable_closed_form():
    assert psi(stable_data(1.0), [2.0]) == pytest.approx(-2.0, abs=1e-14)
    assert psi(stable_data(0.5), [2.0]) == pytest.approx(-np.sqrt(2.0), abs=1e-14)


def test_psi_radial_quadrature_matches_closed_form():
    # the radial-product realization of the stable measure is an independent path
    radial = StableMeasure(ALPHA, 1).as_radial()
    data = make_data(radial)
    for z in (0.25, 1.0, 3.0):
        assert psi(data, [z]) == pytest.approx(-abs(z) ** ALPHA, rel=1e-8)


def test_psi_radial_runs_past_r_max_at_slow_rates():
    # the ray integral is in closed form, so a slow rate keeps every digit
    data = make_data(StableMeasure(0.5, 1).as_radial())
    for z in (0.001, 0.002):
        assert abs(psi(data, [z]) + z ** 0.5) < 1e-14


def test_psi_conjugation_and_negativity(mixed_atoms_data):
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(100, 1)) * 3.0
    vals = psi(mixed_atoms_data, Z)
    assert np.max(np.abs(psi(mixed_atoms_data, -Z) - vals.conj())) < 1e-12
    assert np.max(vals.real) <= 1e-15


def test_psi_drift_contributes_imaginary_part():
    data = make_data(AtomsMeasure([[2.0]], [1.0]), gamma=[0.7])
    base = make_data(AtomsMeasure([[2.0]], [1.0]))
    z = 1.3
    assert psi(data, [z]) == pytest.approx(psi(base, [z]) + 1j * z * 0.7, abs=1e-14)


# ---------------------------------------------------------------------------
# psi_tilde
# ---------------------------------------------------------------------------


def test_psi_tilde_identity_modulator_matches_psi(mixed_atoms_data):
    # gamma enters psi only; compare on drift-free data
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(30, 1)) * 2.0
    assert np.max(np.abs(psi_tilde(mixed_atoms_data, IDENTITY_MOD, Z)
                         - psi(mixed_atoms_data, Z))) < 1e-14


@pytest.mark.parametrize("model", ["atoms", "stable", "radial"])
def test_psi_is_unit_weight_psi_tilde_plus_drift(model):
    # one exponent evaluator: psi adds only the drift to the unit-weight psi_tilde
    mu = SphericalMeasure([[1.0, 0.0], [0.6, -0.8]], [0.5, 0.25])
    if model == "atoms":
        data = make_data(AtomsMeasure([[0.5, 0.0], [0.0, -2.0], [1.2, 0.9]],
                                      [0.7, 0.3, 0.4]), mu=mu, gamma=[0.3, -0.2])
    elif model == "stable":
        data = make_data(StableMeasure(0.75, 1), mu=SphericalMeasure([[1.0]], [0.4]),
                         gamma=[0.3])
    else:
        radial = RadialProductMeasure(0.7, 0.5, [[1.0, 0.0], [-0.6, 0.8]], [1.0, 0.5])
        data = make_data(radial, mu=mu, gamma=[0.3, -0.2])
    Z = np.random.default_rng(4).normal(size=(6, data.n)) * 1.5
    want = psi_tilde(data, IDENTITY_MOD, Z) + 1j * (Z @ data.gamma)
    assert np.array_equal(psi(data, Z), want)


def test_symbol_q_stable_near_alpha_two():
    # close to alpha = 2 the sign-weighted q-form is finite, raises no flag
    # and keeps the closed form's digits
    x = np.array([0.3, 0.6, 1.2, 2.0])
    for alpha in (1.95, 1.99):
        with np.errstate(all="raise"):
            got = symbol_q(stable_data(alpha), Modulator(phi=sign_mod()),
                           np.concatenate([x, -x])[:, None])
        want = symbol_stable(alpha, np.concatenate([x, -x]))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_psi_tilde_zero_modulator(mixed_atoms_data):
    mod = Modulator(phi=table_mod([0.0, 0.0, 0.0]))
    assert psi_tilde(mixed_atoms_data, mod, [1.7]) == 0.0


def test_psi_tilde_stable_sign_quadrature_vs_oracle():
    """Dense-grid oracle for the compensated odd integral at alpha = 1/2:

        2 c int_0^inf [sin(z r) - z r 1_{r<=1}] r^{-3/2} dr
    """
    z = 1.0
    c = stable_coefficient(ALPHA, 1)
    r1 = np.geomspace(1e-12, 1.0, 200000)
    r2 = np.linspace(1.0, 4000.0, 2000000)
    val = np.trapezoid((np.sin(z * r1) - z * r1) * r1 ** (-1.5), r1)
    val += np.trapezoid(np.sin(z * r2) * r2 ** (-1.5), r2)
    oracle = 2j * c * val
    got = psi_tilde(stable_data(), Modulator(phi=sign_mod()), [z])
    assert got.real == pytest.approx(0.0, abs=1e-12)
    assert got == pytest.approx(oracle, abs=2e-6)


def test_psi_tilde_table_requires_atoms():
    with pytest.raises(ModulatorUndefinedOnSupport):
        psi_tilde(stable_data(), Modulator(phi=table_mod([1.0])), [1.0])


def test_ball_on_a_radial_measure_is_named():
    # a ball weight is not constant along rays, so it has no per-direction value
    data = make_data(StableMeasure(ALPHA, 1).as_radial())
    mod = Modulator(phi=ball_mod(0.7))
    with pytest.raises(ModulatorUndefinedOnSupport, match="ball"):
        validate(data, mod)
    with pytest.raises(ModulatorUndefinedOnSupport, match="ball"):
        psi_tilde(data, mod, [1.3])


def test_stable_measure_in_two_dimensions_takes_only_a_constant_phi():
    data = make_data(StableMeasure(0.5, 2))
    assert validate(data, Modulator(phi=constant_mod(0.5))) is data
    with pytest.raises(MeasureValidationError, match="n = 1"):
        validate(data, Modulator(phi=sign_mod()))


def test_stable_measure_in_two_dimensions_through_the_ratio_form():
    # a constant phi on the 2-D stable measure: the cross forms are differences
    # of the closed form -|z|^alpha, so the ratio form runs and meets the q-form
    data = make_data(StableMeasure(0.7, 2), A=[[1.0, 0.3], [-0.2, 0.8]],
                     B=[[-0.5, 1.0], [0.9, 0.4]])
    mod = Modulator(phi=constant_mod(0.6))
    xi = np.random.default_rng(8).normal(size=(20, 2)) * 1.5
    want = symbol_q(data, mod, xi)
    assert np.max(np.abs(symbol_integral(data, mod, xi) - want)) <= 1e-12 * np.max(np.abs(want))
    # approximate has no discretisation of the 2-D measure
    with pytest.raises(MeasureValidationError, match="n = 1"):
        approximate(data, mod, 0.1)


def test_radial_psi_tilde_halfspace_keeps_the_directions_inside():
    # phi weights each direction's integral: with a halfspace it keeps exactly
    # the rays inside, as psi on the measure holding only those rays does
    ang = np.array([0.3, 1.9, 3.5, 5.0])
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    a = np.array([0.5, 1.0, 0.25, 0.7])
    normal = np.array([1.0, 0.4])
    inside = dirs @ normal > 0.0
    assert 0 < inside.sum() < ang.size
    Z = np.random.default_rng(6).normal(size=(5, 2)) * 2.0
    got = psi_tilde(make_data(RadialProductMeasure(0.8, 0.6, dirs, a)),
                    Modulator(phi=halfspace_mod(normal)), Z)
    want = psi(make_data(RadialProductMeasure(0.8, 0.6, dirs[inside], a[inside])), Z)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("mod", [Modulator(phi=sign_mod(axis=2)),
                                 Modulator(phi=sign_mod(axis=-1)),
                                 Modulator(psi=sign_mod(axis=1)),
                                 Modulator(phi=halfspace_mod([1.0, 0.0]))])
def test_modulator_off_the_jump_space_is_named(mod):
    # n = 1: a sign axis outside [0, 1) or a halfspace normal of another size
    # has no value on the support, at validate and at every exponent entry point
    data = make_data(AtomsMeasure([[1.0], [-2.0]], [0.7, 0.3]),
                     mu=SphericalMeasure([[1.0]], [0.4]))
    for call in (lambda: validate(data, mod), lambda: psi_tilde(data, mod, [1.0]),
                 lambda: exponents(data, mod, [1.0]),
                 lambda: cross_form(data, mod, [1.0], [0.5]),
                 lambda: approximate(data, mod, 0.1)):
        with pytest.raises(ModulatorUndefinedOnSupport):
            call()


def test_modulator_presets_evaluate():
    from levymult import ball_mod, halfspace_mod, phase_mod
    from levymult.levy import eval_modspec

    pts = np.array([[1.0, 0.5], [-0.3, 2.0], [0.0, -1.0]])
    assert np.array_equal(eval_modspec(sign_mod(1), pts),
                          np.sign(pts[:, 1]).astype(complex))
    assert np.array_equal(eval_modspec(halfspace_mod([1.0, 0.0]), pts),
                          np.array([1.0, 0.0, 0.0], dtype=complex))
    assert np.array_equal(eval_modspec(ball_mod(1.2), pts),
                          np.array([1.0, 0.0, 1.0], dtype=complex))
    ph = eval_modspec(phase_mod(2), pts)
    assert np.allclose(np.abs(ph), 1.0)
    assert ph[0] == pytest.approx(np.exp(2j * np.arctan2(0.5, 1.0)))


def test_psi_tilde_halfspace_keeps_one_atom():
    from levymult import halfspace_mod

    nu = AtomsMeasure([[1.0], [-2.0]], [0.7, 0.3])
    data = make_data(nu)
    mod = Modulator(phi=halfspace_mod([1.0]))
    z = 1.3
    want = psi(make_data(AtomsMeasure([[1.0]], [0.7])), [z])
    assert psi_tilde(data, mod, [z]) == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# one pass over the atoms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("zeta", [1e-6, 1e-8, 1e-10])
def test_psi_real_part_conditioned_at_small_phase(zeta):
    # Re psi = w (cos x - 1) with x = zeta z; Re(e^{ix} - 1) loses every digit
    # of it once x is below about 1e-8, -2 w t^2/(1+t^2), t = tan(x/2), keeps them
    w, z = 0.7, 1.3
    x = zeta * z
    got = psi(make_data(AtomsMeasure([[z]], [w])), [zeta]).real
    assert got == pytest.approx(w * (-x * x / 2.0 + x**4 / 24.0), rel=1e-12, abs=0.0)


def _phi_by_hand(kind, z):
    if kind == "constant":
        return 0.6 - 0.3j
    if kind == "sign":
        return float(np.sign(z[-1]))
    return 1.0 if sum(z) > 0.0 else 0.0   # halfspace with normal (1, ..., 1)


def _cmath_exponent(atoms, masses, phis, zeta, gamma):
    """Per-atom sum of w phi (e^{i(zeta,z)} - 1 - i(zeta,z) 1_{|z|<=1}) + i(zeta,gamma)."""
    total = 1j * sum(a * g for a, g in zip(zeta, gamma))
    for z, w, p in zip(atoms, masses, phis):
        dot = sum(a * b for a, b in zip(zeta, z))
        comp = dot if math.sqrt(sum(c * c for c in z)) <= 1.0 else 0.0
        total += w * p * (cmath.exp(1j * dot) - 1.0 - 1j * comp)
    return total


@pytest.mark.parametrize("kind", ["constant", "table", "sign", "halfspace"])
@pytest.mark.parametrize("dim", [1, 2])
def test_shared_atom_pass_matches_cmath_oracle(dim, kind):
    rng = np.random.default_rng(11 + dim)
    dirs = rng.normal(size=(1500, dim))
    atoms = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * rng.uniform(0.05, 3.0, (1500, 1))
    atoms[:2] = np.eye(dim)[0], -np.eye(dim)[-1]         # exactly on |z| = 1
    masses = rng.uniform(0.1, 1.0, 1500)
    gamma = rng.normal(size=dim)
    if kind == "table":
        table = rng.uniform(0.0, 0.7, 1500) * np.exp(2j * np.pi * rng.uniform(size=1500))
        spec, phis = table_mod(table), table
    else:
        spec = {"constant": constant_mod(0.6 - 0.3j), "sign": sign_mod(dim - 1),
                "halfspace": halfspace_mod(np.ones(dim))}[kind]
        phis = [_phi_by_hand(kind, z) for z in atoms]
    data, mod = make_data(AtomsMeasure(atoms, masses), gamma=gamma), Modulator(phi=spec)
    # 4000 rows make atom chunks of ATOM_CHUNK_VALUES // 4000 = 16: the pass spans many
    Z = rng.normal(size=(4000, dim)) * 2.0
    ps, pt = psi(data, Z), psi_tilde(data, mod, Z)
    tol = 1e-12 * masses.sum()
    for row in (0, 999, 2500, 3999):
        assert abs(ps[row] - _cmath_exponent(atoms, masses, [1.0] * 1500, Z[row], gamma)) < tol
        assert abs(pt[row] - _cmath_exponent(atoms, masses, phis, Z[row], np.zeros(dim))) < tol
    ps2, pt2 = exponents(data, mod, Z)
    assert np.max(np.abs(ps2 - ps)) < 1e-13 * masses.sum()
    assert np.max(np.abs(pt2 - pt)) < 1e-13 * masses.sum()


# ---------------------------------------------------------------------------
# e^{iD} - 1 from one tangent; radial panel edges
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def test_tangent_parts_match_sin_and_half_angle_form():
    # |D| from 1e-150 to 1e7 of both signs, 0, and D next to odd multiples of
    # pi, where t = tan(D/2) reaches about 1e16
    D = np.geomspace(1e-150, 1e7, 3000)
    poles = (2 * np.arange(0, 1_500_000, 7919) + 1) * np.pi
    D = np.concatenate([[0.0], D, -D, poles, np.nextafter(poles, 0.0), np.nextafter(poles, 1e9),
                        -poles])
    assert np.max(np.abs(np.tan(0.5 * D))) > 1e16
    C, S = levy._expm1i_parts(D)
    sin_d, cos_m1 = np.sin(D), -2.0 * np.sin(0.5 * D) ** 2
    assert np.all(np.abs(S - sin_d) <= 4 * EPS * np.maximum(1.0, np.abs(sin_d)))
    assert np.all(np.abs(C - cos_m1) <= 4 * EPS * np.maximum(1.0, np.abs(cos_m1)))


def test_tangent_parts_keep_relative_precision_at_small_phase():
    # cos D - 1 ~ -D^2 / 2 to about one ulp, against its Taylor series in exact
    # rational arithmetic (the first omitted term is below 1e-40 relative)
    D = np.geomspace(1e-150, 1e-2, 200)
    D = np.concatenate([D, -D])
    C, _ = levy._expm1i_parts(D)
    for c, d in zip(C.tolist(), D.tolist()):
        d2 = Fraction(d) ** 2
        want = sum((-1) ** j * d2 ** j / math.factorial(2 * j) for j in range(1, 7))
        assert abs((Fraction(c) - want) / want) <= 2 * EPS


def test_tangent_parts_raise_no_flag_at_the_radial_floors():
    # t^2 stays normal above |D| ~ 1e-154, and the radial exponents and cross
    # forms raise no flag from slow to fast rates
    D = np.geomspace(1e-150, 1e7, 500)
    zeta = np.array([1e-4, 3e-3, 0.314, 1.0, 2.0, 40.0])
    rows = np.concatenate([zeta, -zeta])[:, None]
    with np.errstate(all="raise"):
        levy._expm1i_parts(np.concatenate([[0.0], D, -D]))
        for alpha in (0.25, 0.5, 1.5, 1.9):
            exponents(stable_data(alpha), Modulator(phi=sign_mod()), rows)
            cross_form(stable_data(alpha), Modulator(phi=sign_mod()), rows, 0.5 * rows)


def test_complex_exponential_from_tangent_parts_matches_exp():
    # Re z from 0 down to -745 (results down to the smallest subnormal), |Im z| up
    # to 1e6, where tan reduces large arguments, and Im z = 0, +-pi exactly; the
    # error stays within a few ulp of |e^z| and a few subnormal units below the
    # normal range (exp(x) rounds there first), and no flag but underflow is raised
    rng = np.random.default_rng(30)
    edge_x = np.array([0.0, -1e-300, -1e-8, -1.0, -708.4, -744.4, -745.0])
    edge_y = np.array([0.0, np.pi, -np.pi, 0.5 * np.pi, 1e-150, 1e6, -1e6])
    X, Y = (a.ravel() for a in np.meshgrid(edge_x, edge_y))
    x = np.concatenate([X, -rng.uniform(0.0, 745.0, 20000), -np.geomspace(1e-12, 745.0, 2000)])
    y = np.concatenate([Y, rng.uniform(-1e6, 1e6, 20000),
                        np.geomspace(1e-150, 1e6, 2000) * rng.choice([-1.0, 1.0], 2000)])
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        got = levy._cexp(x, y, np.empty(x.shape, dtype=complex))
    want = np.exp(x + 1j * y)
    subnormal = np.nextafter(0.0, 1.0)
    assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want) + 4 * subnormal)
    assert got[:3].tolist() == [1.0, np.exp(-1e-300), np.exp(-1e-8)]   # Im z = 0 exactly


def _radial_edges_loop(r_lo, r_hi, osc_rate, order, periods_per_panel=4.0):
    """radial_edges one edge at a time: the oracle for its cumsum runs."""
    max_width = np.inf
    if osc_rate > 0.0:
        max_width = periods_per_panel * 2.0 * np.pi / osc_rate
    edges = [r_lo]
    r = r_lo
    while r < r_hi:
        step = min(r, max_width)
        nxt = min(r + step, r_hi)
        if r < 1.0 < nxt:
            nxt = 1.0
        edges.append(nxt)
        r = nxt
    return np.asarray(edges)


def test_radial_edges_equal_the_loop_bitwise():
    cases = [
        (1e-3, 5e5, 4.5, 64, 16.0),      # approximate at eps = 1e-3: 22 k capped edges
        (0.3, 40.0, 50.0, 64),           # the capped run crosses the forced edge at 1
        (0.3, 1.0, 50.0, 64),            # ... which is also the cut r_hi
        (0.01, 0.9, 30.0, 64),           # the capped run ends at a cut below 1
        (2.0, 7.3, 5.0, 64),             # capped from the start, above 1
        (1e-3, 7.0, 2.0 * np.pi, 64, 1.0),  # unit width: the sums land on 1 and on r_hi
        (1e-8, 100.0, 0.0, 64),          # no oscillation: doubling only
    ]
    rng = np.random.default_rng(5)
    for _ in range(300):
        lo = 10.0 ** rng.uniform(-12, 1)
        hi = lo * 10.0 ** rng.uniform(0.01, 4)
        osc = 0.0 if rng.uniform() < 0.1 else 10.0 ** rng.uniform(-3, 1.5)
        cases.append((lo, hi, osc, 64, float(rng.choice([1.0, 4.0, 16.0]))))
    for args in cases:
        assert np.array_equal(radial_edges(*args), _radial_edges_loop(*args)), args


# ---------------------------------------------------------------------------
# cross_form
# ---------------------------------------------------------------------------


def test_cross_zero_argument(mixed_atoms_data, complex_phi):
    assert cross_form(mixed_atoms_data, complex_phi, [0.0], [1.0]) == 0.0


def test_cross_single_atom_hand_value():
    data = make_data(AtomsMeasure([[1.0]], [1.0]))
    val = cross_form(data, IDENTITY_MOD, [np.pi], [np.pi])
    assert val == pytest.approx(4.0, abs=1e-13)  # (e^{i pi} - 1)^2


def _difference(data, mod, z1, z2):
    """psi_tilde(z1 + z2) - psi_tilde(z1) - psi_tilde(z2): the cross form the
    direct integral must reproduce."""
    z1, z2 = np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)
    return psi_tilde(data, mod, z1 + z2) - psi_tilde(data, mod, z1) - psi_tilde(data, mod, z2)


def test_cross_identity_direct_vs_difference(mixed_atoms_data, complex_phi):
    rng = np.random.default_rng(2)
    for _ in range(100):
        z1, z2 = rng.normal(size=2) * 2.5
        direct = cross_form(mixed_atoms_data, complex_phi, [z1], [z2])
        assert abs(direct - _difference(mixed_atoms_data, complex_phi, [z1], [z2])) < 1e-10


def test_cross_stable_sign_closed_form_vs_quadrature():
    # I (e^{icz} - 1) sgn(z) nu(dz) = i tan(pi alpha/2) sgn(c) |c|^alpha for the
    # stable measure; the compensators cancel in the three-term combination
    def u(c):
        return 1j * math.tan(math.pi * ALPHA / 2.0) * np.sign(c) * abs(c) ** ALPHA

    data = stable_data()
    mod = Modulator(phi=sign_mod())
    for z1, z2 in ((1.0, 1.0), (0.5, 2.0), (-1.5, 0.7)):
        quad = cross_form(data, mod, [z1], [z2])
        assert quad == pytest.approx(u(z1 + z2) - u(z1) - u(z2), rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("z1, z2", [(1.0, 0.2), (2.0, -0.25)])
def test_cross_stable_direct_resolves_slowest_tail_term(z1, z2):
    # a slow rate |z2| beside a fast |z1 + z2| on the stable closed form
    data = make_data(StableMeasure(0.5, 1))
    direct = cross_form(data, IDENTITY_MOD, [z1], [z2])
    assert abs(direct - _difference(data, IDENTITY_MOD, [z1], [z2])) < 1e-13


def test_cross_stable_near_cancelling_rates_closed_form():
    # |z1 + z2| = 1e-7 |z1| on the radial form: the cross form of psi = -|z|^alpha
    data = make_data(StableMeasure(0.5, 1).as_radial())
    z1, z2 = 1.0, -0.9999999
    want = -abs(z1 + z2) ** 0.5 + abs(z1) ** 0.5 + abs(z2) ** 0.5
    assert cross_form(data, IDENTITY_MOD, [z1], [z2]) == pytest.approx(want, rel=1e-14, abs=0.0)


def _radial_halfspace():
    radial = RadialProductMeasure(0.7, 0.5,
                                  [[1.0, 0.0], [0.6, 0.8], [-0.6, -0.8], [0.0, -1.0]],
                                  [1.0, 0.5, 0.7, 0.3])
    data = make_data(radial, mu=SphericalMeasure([[0.0, 1.0]], [0.5]), gamma=[0.2, -0.1])
    return data, Modulator(phi=halfspace_mod([1.0, 0.5]), psi=constant_mod(0.5))


def test_cross_radial_halfspace_direct_vs_difference():
    # a radial cross form is the difference of its jump parts; check it with a
    # weight that differs between directions, and with a sphere part
    data, mod = _radial_halfspace()
    rng = np.random.default_rng(5)
    for _ in range(4):
        z1, z2 = rng.normal(size=(2, 2)) * 1.5
        direct = cross_form(data, mod, z1, z2)
        assert abs(direct) > 0.5
        assert abs(direct - _difference(data, mod, z1, z2)) < 1e-9


def test_cross_batch_rows_equal_per_row_calls():
    # atoms with a sphere part and a complex table phi, then a radial measure
    atoms = make_data(AtomsMeasure([[0.8, 0.1], [-1.7, 0.4], [0.3, -0.2]], [0.6, 0.9, 0.2]),
                      mu=SphericalMeasure([[1.0, 0.0], [0.6, -0.8]], [0.4, 0.3]))
    atoms_mod = Modulator(phi=table_mod([0.9j, -0.4, 0.5 + 0.5j]), psi=table_mod([0.8, -0.3j]))
    rng = np.random.default_rng(11)
    for data, mod in ((atoms, atoms_mod), _radial_halfspace()):
        Z1, Z2 = rng.normal(size=(2, 5, 2)) * 1.5
        batch = cross_form(data, mod, Z1, Z2)
        assert batch.shape == (5,)
        rows = [cross_form(data, mod, z1, z2) for z1, z2 in zip(Z1, Z2)]
        assert np.max(np.abs(batch - rows)) <= 1e-15 * np.max(np.abs(rows))


@pytest.mark.parametrize("zeta1, zeta2", [
    ([1.0, 2.0], [0.5]), ([[1.0, 2.0]], [[0.5, 0.5]]), ([[1.0], [2.0]], [[0.5]]),
])
def test_cross_rows_of_wrong_shape_raise_shape_mismatch(single_atom_data, zeta1, zeta2):
    with pytest.raises(ShapeMismatch):
        cross_form(single_atom_data, IDENTITY_MOD, zeta1, zeta2)


def test_a_0d_point_gives_the_complex_of_the_1d_point(mixed_atoms_data, complex_phi):
    # a 0-d point used to give length-1 arrays from psi, psi_tilde and exponents
    data = make_data(mixed_atoms_data.nu, mu=SphericalMeasure([[1.0]], [0.3]), gamma=[0.2],
                     A=[[1.0]], B=[[-1.0]])
    calls = [lambda z: psi(data, z), lambda z: psi_tilde(data, complex_phi, z),
             lambda z: exponents(data, complex_phi, z)[0],
             lambda z: exponents(data, complex_phi, z)[1],
             lambda z: cross_form(data, complex_phi, z, 0.4 * np.asarray(z))]
    for call in calls:
        got = call(np.float64(1.3))
        assert isinstance(got, complex) and got == call([1.3])


@pytest.mark.parametrize("zeta", [[0.5, 1.0], [[0.5, 7.0]], np.zeros((2, 1, 1)), []])
def test_exponents_name_a_zeta_of_the_wrong_shape(single_atom_data, zeta):
    for call in (psi, lambda d, z: psi_tilde(d, IDENTITY_MOD, z),
                 lambda d, z: cross_form(d, IDENTITY_MOD, z, z)):
        with pytest.raises(ShapeMismatch, match="zeta"):
            call(single_atom_data, zeta)


def test_cross_with_sphere_part():
    mu = SphericalMeasure([[1.0]], [2.0])
    data = make_data(AtomsMeasure([[3.0]], [0.5]), mu=mu)
    mod = Modulator(psi=table_mod([-0.5]))
    # sphere term: -(z1 . th)(z2 . th) psi(th) mu(th) = -(1.2)(0.7)(-0.5)(2)
    jump = cross_form(make_data(data.nu), IDENTITY_MOD, [1.2], [0.7])
    total = cross_form(data, mod, [1.2], [0.7])
    assert total - jump == pytest.approx(0.84, abs=1e-13)


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------


def test_approximate_sphere_atom_becomes_jump():
    mu = SphericalMeasure([[1.0]], [1.0])
    data = make_data(AtomsMeasure([[5.0]], [1e-9]), mu=mu)  # tiny filler atom
    out, _ = approximate(data, IDENTITY_MOD, 0.1)
    assert out.mu.is_empty
    # the sphere atom lands at 0.1 * e1 with mass 1 / 0.1^2 = 100
    idx = np.argmin(np.abs(out.nu.atoms[:, 0] - 0.1))
    assert out.nu.atoms[idx, 0] == pytest.approx(0.1)
    assert out.nu.weights[idx] == pytest.approx(100.0)


def test_approximate_filters_atoms_below_eps(mixed_atoms_data, complex_phi):
    out, mod = approximate(mixed_atoms_data, complex_phi, 0.6)
    assert np.all(np.linalg.norm(out.nu.atoms, axis=1) > 0.6)
    assert out.nu.weights.size == 2            # the 0.5 atom is dropped
    assert mod.phi.table.size == 2


def test_approximate_eps_too_large():
    # the radial cut is 500 / eps, which eps = 30 does not lie below
    radial = StableMeasure(ALPHA, 1).as_radial()
    with pytest.raises(EpsTooLarge):
        approximate(make_data(radial), IDENTITY_MOD, 30.0)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_approximate_stable_and_its_radial_form_agree_bitwise(eps):
    # both forms of the stable measure are cut at 500 / eps: one surrogate
    mod = Modulator(phi=sign_mod())
    a_data, a_mod = approximate(make_data(StableMeasure(ALPHA, 1)), mod, eps, zeta_max=4.5)
    b_data, b_mod = approximate(make_data(StableMeasure(ALPHA, 1).as_radial()), mod, eps,
                                zeta_max=4.5)
    assert np.array_equal(a_data.nu.atoms, b_data.nu.atoms)
    assert np.array_equal(a_data.nu.weights, b_data.nu.weights)
    assert np.array_equal(a_mod.phi.table, b_mod.phi.table)


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf])
def test_approximate_rejects_eps_outside_zero_inf(mixed_atoms_data, eps):
    # a NaN eps used to drop every atom (norm > nan is False) and give psi = 0
    with pytest.raises(EpsTooLarge, match="eps = "):
        approximate(mixed_atoms_data, IDENTITY_MOD, eps)


@pytest.mark.parametrize("zeta_max", [0.0, -2.0, np.nan, np.inf])
def test_approximate_rejects_zeta_max_not_positive_finite(zeta_max):
    # a NaN or nonpositive zeta_max used to lift the oscillation width cap
    with pytest.raises(ValueError, match="zeta_max = "):
        approximate(stable_data(), Modulator(phi=sign_mod()), 0.01, zeta_max=zeta_max)


def test_approximate_exponent_converges_monotonically():
    data = stable_data()
    mod = Modulator(phi=sign_mod())
    zs = np.array([[1.0]])
    errs = []
    for eps in (0.1, 0.01, 0.001):
        d_eps, _ = approximate(data, mod, eps, zeta_max=2.0)
        errs.append(abs(psi(d_eps, zs)[0] - psi(data, zs)[0]))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-3


def test_one_dimensional_atom_phases_equal_the_matmul_bitwise(monkeypatch):
    """For n = 1 the atom passes form Z atoms^T as the broadcast product
    Z * atoms[:, 0]; through psi, psi_tilde and cross_form on a 287 k-atom
    surrogate it gives the inner-dimension-1 matmul's values bit for bit."""
    data, mod = approximate(stable_data(), Modulator(phi=sign_mod()), 0.01, zeta_max=4.5)
    zeta = np.linspace(-4.5, 4.5, 17)[:, None]   # holds 0 and both signs

    def outputs():
        return (psi(data, zeta), psi_tilde(data, mod, zeta),
                cross_form(data, mod, zeta, -0.5 * zeta[::-1]))

    got = outputs()
    monkeypatch.setattr(levy, "_phases", lambda Z, atoms: Z @ atoms.T)
    for g, w in zip(got, outputs()):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_approximate_modulated_exponent_tracks_sphere_values():
    # phi_eps takes the sphere weight on the radius-eps atoms
    mu = SphericalMeasure([[1.0], [-1.0]], [1.0, 1.0])
    data = make_data(AtomsMeasure([[5.0]], [1e-9]), mu=mu)
    mod = Modulator(psi=table_mod([0.25j, -0.25j]))
    out, out_mod = approximate(data, mod, 0.05)
    sphere_rows = np.abs(np.abs(out.nu.atoms[:, 0]) - 0.05) < 1e-12
    assert np.array_equal(
        np.sort_complex(out_mod.phi.table[sphere_rows]),
        np.sort_complex(np.array([0.25j, -0.25j])),
    )
    # psi_tilde of the surrogate approaches psi_tilde; with psi values that
    # cancel at leading order the sphere remainder is O(eps)
    zeta = np.array([[1.3]])
    want = psi_tilde(data, mod, zeta)[0]
    errs = []
    for eps in (0.05, 0.005):
        d_eps, m_eps = approximate(data, mod, eps)
        errs.append(abs(psi_tilde(d_eps, m_eps, zeta)[0] - want))
    assert errs[1] < 0.15 * errs[0]
    assert errs[1] < 1.2e-3


# ---------------------------------------------------------------------------
# drift_reduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "atom, gamma, want_h",
    [
        ([2.0], [0.0], 0.0),     # atom outside the ball: empty compensator
        ([0.5], [0.0], -0.5),
        ([0.5], [1.0], 0.5),
    ],
)
def test_drift_reduce_hand_values(atom, gamma, want_h):
    data = make_data(AtomsMeasure([atom], [1.0]), gamma=gamma)
    _, h = drift_reduce(data)
    assert h[0] == pytest.approx(want_h, abs=1e-15)


def test_drift_reduce_reconstructs_exponent(mixed_atoms_data):
    reduced, h = drift_reduce(mixed_atoms_data)
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal() * 3.0
        assert abs(psi(mixed_atoms_data, [z])
                   - (psi(reduced, [z]) + 1j * z * h[0])) < 1e-12


def test_drift_reduce_requires_atoms():
    with pytest.raises(RequiresFiniteMeasure):
        drift_reduce(stable_data())
