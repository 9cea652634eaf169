"""Measure validation, exponent evaluation, approximation, drift handling."""

import numpy as np
import pytest

from levymult import (
    AtomsMeasure,
    IDENTITY_MOD,
    Modulator,
    RadialProductMeasure,
    RadialProfile,
    SphericalMeasure,
    StableMeasure,
    approximate,
    cross_form,
    drift_reduce,
    make_data,
    psi,
    psi_tilde,
    sign_mod,
    stable_coefficient,
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
    QuadratureNotConverged,
    RequiresFiniteMeasure,
    ShapeMismatch,
)

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
    measure = RadialProductMeasure(RadialProfile("stable", 2.0, 1.0),
                                   [[1.0]], [1.0], r_max=100.0)
    with pytest.raises(NonIntegrableMeasure):
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


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_zero_frequency_vanishes(mixed_atoms_data):
    assert psi(mixed_atoms_data, [0.0]) == 0.0


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
    radial = StableMeasure(ALPHA, 1).as_radial(r_max=1e6)
    data = make_data(radial)
    for z in (0.25, 1.0, 3.0):
        assert psi(data, [z]) == pytest.approx(-abs(z) ** ALPHA, rel=1e-8)


def test_psi_quadrature_error_control():
    radial = StableMeasure(ALPHA, 1).as_radial(r_max=1e6)
    data = make_data(radial)
    with pytest.raises(QuadratureNotConverged):
        psi(data, [1.0], rel_tol=1e-18)


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
        radial = RadialProductMeasure(RadialProfile("stable", 0.7, 0.5),
                                      [[1.0, 0.0], [-0.6, 0.8]], [1.0, 0.5])
        data = make_data(radial, mu=mu, gamma=[0.3, -0.2])
    Z = np.random.default_rng(4).normal(size=(6, data.n)) * 1.5
    want = psi_tilde(data, IDENTITY_MOD, Z) + 1j * (Z @ data.gamma)
    assert np.array_equal(psi(data, Z), want)


def test_psi_tilde_nonfinite_quadrature_raises():
    # at alpha = 1.9 the radial density overflows at the panel floor; the NaN
    # error estimate must fail the convergence test, not pass it
    data = stable_data(1.9)
    with np.errstate(all="ignore"), pytest.raises(QuadratureNotConverged):
        psi_tilde(data, Modulator(phi=sign_mod()), [0.6])


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
# cross_form
# ---------------------------------------------------------------------------


def test_cross_zero_argument(mixed_atoms_data, complex_phi):
    assert cross_form(mixed_atoms_data, complex_phi, [0.0], [1.0]) == 0.0


def test_cross_single_atom_hand_value():
    data = make_data(AtomsMeasure([[1.0]], [1.0]))
    val = cross_form(data, IDENTITY_MOD, [np.pi], [np.pi])
    assert val == pytest.approx(4.0, abs=1e-13)  # (e^{i pi} - 1)^2


def test_cross_identity_direct_vs_difference(mixed_atoms_data, complex_phi):
    rng = np.random.default_rng(2)
    for _ in range(100):
        z1, z2 = rng.normal(size=2) * 2.5
        direct = cross_form(mixed_atoms_data, complex_phi, [z1], [z2], route="direct")
        diff = (psi_tilde(mixed_atoms_data, complex_phi, [z1 + z2])
                - psi_tilde(mixed_atoms_data, complex_phi, [z1])
                - psi_tilde(mixed_atoms_data, complex_phi, [z2]))
        assert abs(direct - diff) < 1e-10


def test_cross_stable_sign_closed_form_vs_quadrature():
    data = stable_data()
    mod = Modulator(phi=sign_mod())
    for z1, z2 in ((1.0, 1.0), (0.5, 2.0), (-1.5, 0.7)):
        quad = cross_form(data, mod, [z1], [z2], route="direct")
        closed = cross_form(data, mod, [z1], [z2], route="difference")
        assert quad == pytest.approx(closed, rel=1e-8, abs=1e-10)


def test_cross_radial_halfspace_direct_vs_difference():
    # the direct route and the exponent share the per-direction sum; check it
    # with a weight that differs between directions and along them
    from levymult import constant_mod, halfspace_mod

    radial = RadialProductMeasure(RadialProfile("stable", 0.7, 0.5),
                                  [[1.0, 0.0], [0.6, 0.8], [-0.6, -0.8], [0.0, -1.0]],
                                  [1.0, 0.5, 0.7, 0.3])
    data = make_data(radial, mu=SphericalMeasure([[0.0, 1.0]], [0.5]), gamma=[0.2, -0.1])
    mod = Modulator(phi=halfspace_mod([1.0, 0.5]), psi=constant_mod(0.5))
    rng = np.random.default_rng(5)
    for _ in range(4):
        z1, z2 = rng.normal(size=(2, 2)) * 1.5
        direct = cross_form(data, mod, z1, z2, route="direct")
        diff = (psi_tilde(data, mod, z1 + z2) - psi_tilde(data, mod, z1)
                - psi_tilde(data, mod, z2))
        assert abs(direct) > 0.5
        assert abs(direct - diff) < 1e-9


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
    radial = StableMeasure(ALPHA, 1).as_radial(r_max=10.0)
    with pytest.raises(EpsTooLarge):
        approximate(make_data(radial), IDENTITY_MOD, 20.0)


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
