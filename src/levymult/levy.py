"""Jump-measure data model and characteristic-exponent evaluation.

A process is described by a jump measure, a finite measure on the unit
sphere feeding the quadratic (Gaussian) part, a drift vector, and a pair
of rectangular matrices mapping the process into the frequency domain of
the output operator.  The two exponents evaluated here are

    psi(zeta)       = I[e^{i(zeta,z)} - 1 - i(zeta,z) 1_{|z|<=1}] nu(dz)
                      - 1/2 I (zeta,theta)^2 mu(dtheta) + i(zeta,gamma)
    psi_tilde(zeta) = same jump/sphere integrals tilted by bounded
                      weights phi(z) and psi(theta), without the drift.

One evaluator computes both: psi is psi_tilde with unit weights plus the
drift term i(zeta, gamma).  The boundary convention includes |z| = 1 in
the compensated region.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AlphaOutOfRange,
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
from .quadrature import (
    panel_rule,
    radial_edges,
    singular_floor,
    stable_tail_const,
    stable_tail_exp,
)

DEFAULT_REL_TOL = 1e-9
UNIT_SPHERE_TOL = 1e-12


def stable_coefficient(alpha: float, d: int) -> float:
    """Density coefficient c for the rotation-invariant stable jump measure.

    nu(dz) = c |z|^{-d-alpha} dz gives exactly psi(zeta) = -|zeta|^alpha.
    """
    if not 0.0 < alpha < 2.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 2), got {alpha}")
    return (
        math.gamma((d + alpha) / 2.0)
        * 2.0**alpha
        * math.pi ** (-d / 2.0)
        / abs(math.gamma(-alpha / 2.0))
    )


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AtomsMeasure:
    """Finitely many jump atoms z_i with masses w_i > 0."""

    atoms: np.ndarray    # (M, n)
    weights: np.ndarray  # (M,)

    def __post_init__(self):
        object.__setattr__(self, "atoms", np.atleast_2d(np.asarray(self.atoms, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float).ravel())

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def n(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class RadialProfile:
    """Named radial density rho(r) on (0, inf).

    Only the power-law profile  rho(r) = coeff * r^(-1-alpha)  is shipped;
    it is the one the worked examples need, and alpha outside (0, 2) gives
    a non-integrable measure that validate() rejects.
    """

    name: str = "stable"
    alpha: float = 0.5
    coeff: float = 1.0

    def __post_init__(self):
        if self.name != "stable":
            raise MeasureValidationError(f"unknown radial profile {self.name!r}")

    def density(self, r):
        r = np.asarray(r, dtype=float)
        return self.coeff * r ** (-1.0 - self.alpha)


@dataclass(frozen=True, eq=False)
class RadialProductMeasure:
    """Radial density times angular atoms: nu(E) = sum_j a_j I 1_E(r theta_j) rho(r) dr.

    r_max is where numerical integration stops; the remaining tail of the
    stable profile is handled by an asymptotic series at evaluation time.
    """

    profile: RadialProfile
    directions: np.ndarray   # (J, n), unit vectors
    dir_weights: np.ndarray  # (J,)
    r_max: float = 1e4
    quad_order: int = 64

    def __post_init__(self):
        object.__setattr__(self, "directions",
                           np.atleast_2d(np.asarray(self.directions, dtype=float)))
        object.__setattr__(self, "dir_weights",
                           np.asarray(self.dir_weights, dtype=float).ravel())

    @property
    def n(self) -> int:
        return self.directions.shape[1]


@dataclass(frozen=True)
class StableMeasure:
    """Rotation-invariant alpha-stable jump measure with closed-form exponent."""

    alpha: float
    n: int = 1

    def as_radial(self, r_max: float = 1e4, quad_order: int = 64) -> RadialProductMeasure:
        """Equivalent radial-product form (one dimension only)."""
        if self.n != 1:
            raise MeasureValidationError(
                "radial-product form of the stable measure is only available for n = 1"
            )
        coeff = stable_coefficient(self.alpha, 1)
        return RadialProductMeasure(
            profile=RadialProfile("stable", self.alpha, coeff),
            directions=np.array([[1.0], [-1.0]]),
            dir_weights=np.array([1.0, 1.0]),
            r_max=r_max,
            quad_order=quad_order,
        )


@dataclass(frozen=True, eq=False)
class SphericalMeasure:
    """Finite atomic measure on the unit sphere (the Gaussian directions)."""

    directions: np.ndarray  # (M, n)
    weights: np.ndarray     # (M,)

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        if d.size == 0:
            d = d.reshape(0, max(1, d.shape[-1] if d.ndim > 1 else 1))
        else:
            d = np.atleast_2d(d)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float).ravel())

    @classmethod
    def empty(cls, n: int) -> "SphericalMeasure":
        return cls(np.zeros((0, n)), np.zeros(0))

    @property
    def is_empty(self) -> bool:
        return self.weights.size == 0


@dataclass(frozen=True, eq=False)
class LevyData:
    """Full driving data: jump measure, sphere measure, drift, and A, B maps."""

    nu: object                 # AtomsMeasure | RadialProductMeasure | StableMeasure
    mu: SphericalMeasure
    gamma: np.ndarray          # (n,)
    A: np.ndarray              # (d, n)
    B: np.ndarray              # (d, n)
    d: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float).ravel())
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "B", np.atleast_2d(np.asarray(self.B, dtype=float)))


def make_data(nu, mu=None, gamma=None, A=None, B=None, d=None, n=None) -> LevyData:
    """Assemble a LevyData with sensible defaults (identity maps, no drift)."""
    if n is None:
        if isinstance(nu, StableMeasure):
            n = nu.n
        elif isinstance(nu, AtomsMeasure):
            n = nu.n
        elif isinstance(nu, RadialProductMeasure):
            n = nu.n
        elif mu is not None and not mu.is_empty:
            n = mu.directions.shape[1]
        else:
            raise ShapeMismatch("cannot infer the jump-space dimension")
    if d is None:
        d = n if A is None else np.atleast_2d(np.asarray(A)).shape[0]
    mu = SphericalMeasure.empty(n) if mu is None else mu
    gamma = np.zeros(n) if gamma is None else gamma
    A = np.eye(d, n) if A is None else A
    B = np.eye(d, n) if B is None else B
    return LevyData(nu=nu, mu=mu, gamma=gamma, A=A, B=B, d=d, n=n)


# ---------------------------------------------------------------------------
# modulators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModSpec:
    """One bounded weight function, as a named preset or per-atom table.

    kinds: constant | sign | halfspace | ball | phase | table
    """

    kind: str = "constant"
    value: complex = 1.0
    axis: int = 0
    normal: tuple = ()
    radius: float = 1.0
    harmonic: int = 1
    table: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.table is not None:
            object.__setattr__(self, "table", np.asarray(self.table, dtype=complex).ravel())


def constant_mod(value=1.0) -> ModSpec:
    return ModSpec(kind="constant", value=complex(value))


def sign_mod(axis: int = 0) -> ModSpec:
    return ModSpec(kind="sign", axis=axis)


def halfspace_mod(normal) -> ModSpec:
    return ModSpec(kind="halfspace", normal=tuple(float(v) for v in np.ravel(normal)))


def ball_mod(radius: float = 1.0) -> ModSpec:
    return ModSpec(kind="ball", radius=float(radius))


def phase_mod(harmonic: int = 1) -> ModSpec:
    return ModSpec(kind="phase", harmonic=int(harmonic))


def table_mod(values) -> ModSpec:
    return ModSpec(kind="table", table=np.asarray(values, dtype=complex))


@dataclass(frozen=True, eq=False)
class Modulator:
    """The pair of bounded weights: phi on jump space, psi on the sphere."""

    phi: ModSpec = field(default_factory=constant_mod)
    psi: ModSpec = field(default_factory=constant_mod)


IDENTITY_MOD = Modulator()


def eval_modspec(spec: ModSpec, points: np.ndarray, indices=None) -> np.ndarray:
    """Evaluate one weight at points (M, n); table kinds need atom indices."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = points.shape[0]
    if spec.kind == "constant":
        return np.full(m, spec.value, dtype=complex)
    if spec.kind == "sign":
        return np.sign(points[:, spec.axis]).astype(complex)
    if spec.kind == "halfspace":
        normal = np.asarray(spec.normal, dtype=float)
        if normal.size != points.shape[1]:
            raise ModulatorUndefinedOnSupport(
                f"halfspace normal has size {normal.size}, points have dimension {points.shape[1]}"
            )
        return (points @ normal > 0.0).astype(complex)
    if spec.kind == "ball":
        return (np.linalg.norm(points, axis=1) <= spec.radius).astype(complex)
    if spec.kind == "phase":
        if points.shape[1] >= 2:
            ang = np.arctan2(points[:, 1], points[:, 0])
        else:
            ang = np.where(points[:, 0] >= 0.0, 0.0, np.pi)
        return np.exp(1j * spec.harmonic * ang)
    if spec.kind == "table":
        if indices is None:
            raise ModulatorUndefinedOnSupport(
                "per-atom table cannot be evaluated at arbitrary points"
            )
        indices = np.asarray(indices)
        if indices.size and indices.max() >= spec.table.size:
            raise ModulatorUndefinedOnSupport(
                f"table has {spec.table.size} entries, asked for index {int(indices.max())}"
            )
        return spec.table[indices]
    raise ModulatorUndefinedOnSupport(f"unknown modulator kind {spec.kind!r}")


def _modspec_sup(spec: ModSpec, n: int) -> float:
    """Supremum of |spec| -- exact for tables, sampled for presets."""
    if spec.kind == "table":
        return float(np.abs(spec.table).max()) if spec.table.size else 0.0
    if spec.kind == "constant":
        return abs(spec.value)
    # presets are bounded by 1 by construction; sample anyway as a guard
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((256, n))
    pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12)
    vals = eval_modspec(spec, pts * rng.uniform(0.1, 3.0, size=(256, 1)))
    return float(np.abs(vals).max())


def validate_modulator(mod: Modulator, data: "LevyData") -> Modulator:
    for name, spec in (("phi", mod.phi), ("psi", mod.psi)):
        sup = _modspec_sup(spec, data.n)
        if sup > 1.0 + 1e-12:
            raise ModulatorExceedsOne(f"sup |{name}| = {sup:.6g} exceeds 1")
    if mod.phi.kind == "table":
        if not isinstance(data.nu, AtomsMeasure):
            raise ModulatorUndefinedOnSupport(
                "per-atom phi table requires an atomic jump measure"
            )
        if mod.phi.table.size != data.nu.weights.size:
            raise ModulatorUndefinedOnSupport(
                f"phi table has {mod.phi.table.size} entries for "
                f"{data.nu.weights.size} jump atoms"
            )
    if mod.psi.kind == "table" and mod.psi.table.size != data.mu.weights.size:
        raise ModulatorUndefinedOnSupport(
            f"psi table has {mod.psi.table.size} entries for "
            f"{data.mu.weights.size} sphere atoms"
        )
    return mod


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _probe_decades(fn, lo_exp, hi_exp):
    """Integrals of fn over successive decades [10^k, 10^(k+1)]."""
    vals = []
    for k in range(lo_exp, hi_exp):
        edges = np.array([10.0**k, 10.0 ** (k + 1)])
        nodes, weights = panel_rule(edges, 32)
        vals.append(float(np.sum(fn(nodes) * weights)))
    return np.array(vals)


def _check_integrability(measure: RadialProductMeasure):
    """Numerical probe of integral min(r^2, 1) rho(r) dr < inf."""
    rho = measure.profile.density
    # origin side: decade masses of r^2 rho(r) must shrink geometrically
    d_origin = _probe_decades(lambda r: r * r * rho(r), -13, 0)[::-1]
    ratios = d_origin[1:] / np.maximum(d_origin[:-1], 1e-300)
    if np.any(ratios[-4:] >= 0.999):
        raise NonIntegrableMeasure(
            "integral of r^2 rho(r) diverges at the origin"
        )
    # tail side: decade masses of rho alone
    d_tail = _probe_decades(rho, 0, 10)
    ratios = d_tail[1:] / np.maximum(d_tail[:-1], 1e-300)
    if np.any(ratios[-4:] >= 0.999):
        raise NonIntegrableMeasure("integral of rho(r) diverges at infinity")


def validate(data: LevyData, mod: Modulator = None) -> LevyData:
    """Check every structural invariant; returns the data unchanged."""
    d, n = data.d, data.n
    if data.A.shape != (d, n) or data.B.shape != (d, n):
        raise ShapeMismatch(
            f"A and B must be {d}x{n}, got {data.A.shape} and {data.B.shape}"
        )
    if data.gamma.shape != (n,):
        raise ShapeMismatch(f"gamma must have length {n}, got {data.gamma.shape}")

    nu = data.nu
    if isinstance(nu, AtomsMeasure):
        if nu.atoms.shape[1] != n:
            raise ShapeMismatch(
                f"jump atoms live in dimension {nu.atoms.shape[1]}, expected {n}"
            )
        if nu.atoms.shape[0] != nu.weights.size:
            raise ShapeMismatch("atom/weight count mismatch")
        norms = np.linalg.norm(nu.atoms, axis=1)
        if np.any(norms == 0.0):
            raise AtomAtOrigin("jump atom at the origin")
        if np.any(nu.weights <= 0.0) or not np.all(np.isfinite(nu.weights)):
            raise MeasureValidationError("atom masses must be positive and finite")
    elif isinstance(nu, RadialProductMeasure):
        if nu.directions.shape[1] != n:
            raise ShapeMismatch("angular atoms have the wrong dimension")
        if np.any(np.abs(np.linalg.norm(nu.directions, axis=1) - 1.0) > UNIT_SPHERE_TOL):
            raise MeasureValidationError("angular atoms must be unit vectors")
        if np.any(nu.dir_weights < 0.0):
            raise MeasureValidationError("angular weights must be nonnegative")
        if nu.r_max <= 1.0:
            raise MeasureValidationError("r_max must exceed the compensation radius 1")
        _check_integrability(nu)
    elif isinstance(nu, StableMeasure):
        if not 0.0 < nu.alpha < 2.0:
            raise AlphaOutOfRange(f"alpha must lie in (0, 2), got {nu.alpha}")
        if nu.n != n:
            raise ShapeMismatch("stable measure dimension mismatch")
    else:
        raise MeasureValidationError(f"unknown jump measure type {type(nu).__name__}")

    if not data.mu.is_empty:
        if data.mu.directions.shape[1] != n:
            raise ShapeMismatch("sphere atoms have the wrong dimension")
        if np.any(np.abs(np.linalg.norm(data.mu.directions, axis=1) - 1.0) > UNIT_SPHERE_TOL):
            raise MeasureValidationError("sphere atoms must be unit vectors")
        if np.any(data.mu.weights < 0.0):
            raise MeasureValidationError("sphere weights must be nonnegative")

    if mod is not None:
        validate_modulator(mod, data)
    return data


# ---------------------------------------------------------------------------
# exponent evaluation
# ---------------------------------------------------------------------------


def _sphere_part(data: LevyData, Z: np.ndarray, psi_vals) -> np.ndarray:
    """-1/2 sum_j b_j (zeta, theta_j)^2 psi_j, batched over rows of Z."""
    if data.mu.is_empty:
        return np.zeros(Z.shape[0], dtype=complex)
    dots = Z @ data.mu.directions.T  # (K, M)
    w = data.mu.weights.astype(complex) * psi_vals
    return -0.5 * (dots * dots) @ w


def _atoms_jump_part(nu: AtomsMeasure, Z: np.ndarray, phi_vals) -> np.ndarray:
    """Exact compensated atom sum weighted by phi (per atom, or one constant),
    batched over rows of Z.

    Chunked over atoms so quadrature-generated measures with millions of
    atoms do not blow up temporaries.
    """
    w = nu.weights.astype(complex)
    w *= phi_vals
    m_total = nu.atoms.shape[0]
    chunk = max(1, int(4e6) // max(Z.shape[0], 1))
    out = np.zeros(Z.shape[0], dtype=complex)
    for m0 in range(0, m_total, chunk):
        atoms = nu.atoms[m0:m0 + chunk]
        dots = Z @ atoms.T
        inside = np.linalg.norm(atoms, axis=1) <= 1.0
        integrand = np.exp(1j * dots)
        integrand -= 1.0
        integrand -= 1j * dots * inside[None, :]
        out += integrand @ w[m0:m0 + chunk]
    return out


def _radial_1d(profile: RadialProfile, integrand, head: float, osc: float, terms,
               r_max: float, order: int, phi_fn):
    """integral over (0, inf) of integrand(r) [phi(r)] rho(r) dr for the stable profile.

    head is the r^2 coefficient of |integrand| at the origin (head = 0 makes
    the integrand vanish), osc the fastest oscillation rate, and terms the
    (sign, c) pairs with integrand(r) = sum sign e^{icr} past r_max.
    Numerical panels run on [floor, r_max]; the mass below the floor is
    booked as error and the tail past r_max is added analytically, each
    e^{icr} term by its asymptotic series (exactly when c = 0).  An
    infinite r_max (the stable measure has no cut of its own) becomes
    60 / osc, at least 100, so every oscillating term is resolved.  phi_fn,
    when given, maps radii to weight values along the current direction
    (its tail is then taken constant, valid for the shipped presets, which
    depend only on the direction for large r).
    Returns (value, error_estimate).
    """
    alpha, coeff = profile.alpha, profile.coeff
    if head == 0.0:
        return 0.0 + 0.0j, 0.0
    if r_max == np.inf:
        r_max = max(100.0, 60.0 / osc)
    floor = singular_floor(alpha, head * coeff, 1e-16)
    floor = min(floor, 0.5 / osc, 0.5)

    def weighted(r):
        vals = integrand(r) * profile.density(r)
        if phi_fn is not None:
            vals = vals * phi_fn(r)
        return vals

    edges = radial_edges(floor, r_max, osc, order)
    nodes, weights = panel_rule(edges, order)
    value = np.sum(weighted(nodes) * weights)
    nodes2, weights2 = panel_rule(edges, order + 8)
    value2 = np.sum(weighted(nodes2) * weights2)
    err = abs(value2 - value)
    value = value2

    # head below the panel floor: |integrand| ~ head r^2
    err += head * coeff * floor ** (2.0 - alpha) / (2.0 - alpha)

    # analytic stable tail beyond r_max
    tail_phi = 1.0 + 0.0j
    if phi_fn is not None:
        tail_phi = complex(np.asarray(phi_fn(np.array([r_max]))).ravel()[0])
    mass = stable_tail_const(r_max, alpha, coeff)
    tail = 0.0 + 0.0j
    for sgn, c in terms:
        if c == 0.0:
            tail += sgn * mass
        elif abs(c) * r_max >= 30.0:
            osc_val, osc_err = stable_tail_exp(c, r_max, alpha, coeff)
            tail += sgn * osc_val
            err += osc_err
        else:
            err += mass  # unresolved oscillatory part
    value += tail_phi * tail
    return value, float(err)


def _radial_exponent_1d(profile: RadialProfile, c: float, r_max: float,
                        order: int, phi_fn=None):
    """integral over (0, inf) of (e^{icr} - 1 - icr 1_{r<=1}) [phi(r)] rho(r) dr."""
    return _radial_1d(
        profile, lambda r: np.exp(1j * c * r) - 1.0 - 1j * c * r * (r <= 1.0),
        0.5 * c * c, abs(c), ((1.0, c), (-1.0, 0.0)), r_max, order, phi_fn,
    )


def _radial_cross_1d(profile: RadialProfile, c1: float, c2: float, r_max: float,
                     order: int, phi_fn=None):
    """integral of (e^{ic1 r} - 1)(e^{ic2 r} - 1) [phi(r)] rho(r) dr on (0, inf)."""
    # (e^{ic1 r}-1)(e^{ic2 r}-1) = e^{i(c1+c2)r} - e^{ic1 r} - e^{ic2 r} + 1
    return _radial_1d(
        profile, lambda r: np.expm1(1j * c1 * r) * np.expm1(1j * c2 * r),
        abs(c1 * c2), max(abs(c1), abs(c2), abs(c1 + c2)),
        ((1.0, c1 + c2), (-1.0, c1), (-1.0, c2), (1.0, 0.0)), r_max, order, phi_fn,
    )


def _direction_phi_fn(mod: Modulator, theta: np.ndarray):
    """phi restricted to the ray r -> r * theta, as a function of r; None for
    a constant phi, whose value the callers apply themselves."""
    if mod.phi.kind == "constant":
        return None
    if mod.phi.kind == "table":
        raise ModulatorUndefinedOnSupport(
            "per-atom phi table cannot be integrated against a radial density"
        )

    def fn(r):
        pts = np.outer(np.asarray(r, dtype=float), theta)
        return eval_modspec(mod.phi, pts)

    return fn


def _direction_sum(radial: RadialProductMeasure, mod: Modulator, term):
    """sum_j a_j term(theta_j, phi_j) over the angular atoms, phi_j being phi
    on the ray through theta_j (see _direction_phi_fn).

    term returns (value, error).  Returns (value, error, max_j |a_j value_j|).
    """
    total = 0.0 + 0.0j
    err = 0.0
    scale = 0.0
    for theta, aj in zip(radial.directions, radial.dir_weights):
        if aj == 0.0:
            continue
        val, e = term(theta, _direction_phi_fn(mod, theta))
        total += aj * val
        err += aj * e
        scale = max(scale, abs(val) * aj)
    return total, err, scale


def _psi_values_at_sphere(mod: Modulator, mu: SphericalMeasure) -> np.ndarray:
    if mod.psi.kind == "table":
        return mod.psi.table
    return eval_modspec(mod.psi, mu.directions)


def _as_batch(zeta, n):
    Z = np.asarray(zeta, dtype=float)
    scalar = Z.ndim == 1
    Z = np.atleast_2d(Z)
    if Z.shape[1] != n:
        raise ShapeMismatch(f"zeta must have dimension {n}, got {Z.shape[1]}")
    return Z, scalar


def _exponent(data: LevyData, mod: Modulator, Z: np.ndarray, rel_tol: float) -> np.ndarray:
    """Jump part weighted by phi plus sphere part weighted by psi, over rows of Z."""
    nu = data.nu
    sphere_psi = None if data.mu.is_empty else _psi_values_at_sphere(mod, data.mu)
    if isinstance(nu, AtomsMeasure):
        # a constant phi stays a scalar: no per-atom array for psi's unit weight
        phi = mod.phi.value if mod.phi.kind == "constant" else _phi_values_at_atoms(mod, nu)
        jump = _atoms_jump_part(nu, Z, phi)
    elif isinstance(nu, StableMeasure) and mod.phi.kind == "constant":
        jump = mod.phi.value * (-np.linalg.norm(Z, axis=1).astype(complex) ** nu.alpha)
    elif isinstance(nu, (StableMeasure, RadialProductMeasure)):
        radial = nu.as_radial(r_max=np.inf) if isinstance(nu, StableMeasure) else nu
        jump = np.zeros(Z.shape[0], dtype=complex)
        for k, z in enumerate(Z):
            total, err, scale = _direction_sum(
                radial, mod, lambda theta, phi_fn: _radial_exponent_1d(
                    radial.profile, float(z @ theta), radial.r_max, radial.quad_order, phi_fn))
            if not err <= rel_tol * max(scale, 1.0):  # a NaN error fails too
                raise QuadratureNotConverged(
                    f"radial quadrature error {err:.3e} above tolerance at zeta={z}"
                )
            jump[k] = total
        if mod.phi.kind == "constant":
            jump = mod.phi.value * jump
    else:
        raise MeasureValidationError(f"unknown jump measure type {type(nu).__name__}")
    return jump + _sphere_part(data, Z, sphere_psi)


def psi(data: LevyData, zeta, rel_tol: float = DEFAULT_REL_TOL):
    """The characteristic exponent at zeta; accepts a batch (K, n) of rows."""
    Z, scalar = _as_batch(zeta, data.n)
    out = _exponent(data, IDENTITY_MOD, Z, rel_tol) + 1j * (Z @ data.gamma)
    return complex(out[0]) if scalar else out


def psi_tilde(data: LevyData, mod: Modulator, zeta, rel_tol: float = DEFAULT_REL_TOL):
    """The modulated exponent at zeta (no drift term); batch rows allowed."""
    Z, scalar = _as_batch(zeta, data.n)
    out = _exponent(data, mod, Z, rel_tol)
    return complex(out[0]) if scalar else out


def _phi_values_at_atoms(mod: Modulator, nu: AtomsMeasure) -> np.ndarray:
    if mod.phi.kind == "table":
        if mod.phi.table.size != nu.weights.size:
            raise ModulatorUndefinedOnSupport(
                f"phi table has {mod.phi.table.size} entries for {nu.weights.size} atoms"
            )
        return mod.phi.table
    return eval_modspec(mod.phi, nu.atoms)


def cross_form(data: LevyData, mod: Modulator, zeta1, zeta2,
               route: str = "auto", rel_tol: float = DEFAULT_REL_TOL) -> complex:
    """Bilinear cross integral
    I (e^{i(z1,z)}-1)(e^{i(z2,z)}-1) phi nu(dz) - I (z1,th)(z2,th) psi mu(dth).

    Equal to psi_tilde(z1+z2) - psi_tilde(z1) - psi_tilde(z2); both the
    direct integral ("direct") and the difference ("difference") are
    available, "auto" picking the cheaper exact one.
    """
    z1 = np.asarray(zeta1, dtype=float).ravel()
    z2 = np.asarray(zeta2, dtype=float).ravel()
    nu = data.nu

    if route == "difference" or (route == "auto" and isinstance(nu, StableMeasure)):
        if isinstance(nu, StableMeasure) and mod.phi.kind in ("sign", "constant") and data.n == 1:
            jump = _stable_cross_closed(nu.alpha, mod.phi, float(z1[0]), float(z2[0]))
        else:
            jump = (psi_tilde(data, mod, z1 + z2, rel_tol)
                    - psi_tilde(data, mod, z1, rel_tol)
                    - psi_tilde(data, mod, z2, rel_tol))
            # sphere part of the difference is already the cross term
            return complex(jump)
        sphere = _cross_sphere(data, mod, z1, z2)
        return complex(jump + sphere)

    # direct integral route
    if isinstance(nu, AtomsMeasure):
        phi_vals = _phi_values_at_atoms(mod, nu)
        d1 = nu.atoms @ z1
        d2 = nu.atoms @ z2
        jump = np.sum(np.expm1(1j * d1) * np.expm1(1j * d2) * phi_vals * nu.weights)
    elif isinstance(nu, (RadialProductMeasure, StableMeasure)):
        radial = nu.as_radial(r_max=np.inf) if isinstance(nu, StableMeasure) else nu

        def term(theta, phi_fn):
            val, e = _radial_cross_1d(radial.profile, float(z1 @ theta), float(z2 @ theta),
                                      radial.r_max, radial.quad_order, phi_fn)
            # a constant phi (no phi_fn) weighs each direction's value
            return (val if phi_fn is not None else val * mod.phi.value), e

        jump, err, _ = _direction_sum(radial, mod, term)
        if not err <= rel_tol * max(abs(jump), 1.0):  # a NaN error fails too
            raise QuadratureNotConverged(
                f"cross-integral quadrature error {err:.3e} above tolerance"
            )
    else:
        raise MeasureValidationError(f"unknown jump measure type {type(nu).__name__}")

    return complex(jump + _cross_sphere(data, mod, z1, z2))


def _cross_sphere(data: LevyData, mod: Modulator, z1, z2) -> complex:
    if data.mu.is_empty:
        return 0.0 + 0.0j
    psi_vals = _psi_values_at_sphere(mod, data.mu)
    d1 = data.mu.directions @ z1
    d2 = data.mu.directions @ z2
    return -np.sum(d1 * d2 * psi_vals * data.mu.weights)


def _stable_cross_closed(alpha: float, phi: ModSpec, z1: float, z2: float) -> complex:
    """Closed form of the stable cross integral for phi = sign or constant (n = 1).

    Both rest on
        I (e^{i c z} - 1) sgn(z) nu(dz) = i tan(pi alpha / 2) sgn(c) |c|^alpha
        I (e^{i c z} - 1 - i c z 1) nu(dz) = -|c|^alpha
    with the compensators cancelling in the three-term combination.
    """

    def u_sign(c):
        return 1j * math.tan(math.pi * alpha / 2.0) * np.sign(c) * abs(c) ** alpha

    def u_even(c):
        return -abs(c) ** alpha

    if phi.kind == "sign":
        u = u_sign
        scale = 1.0
    else:
        u = u_even
        scale = phi.value
    return complex(scale * (u(z1 + z2) - u(z1) - u(z2)))


# ---------------------------------------------------------------------------
# finite-activity approximation and drift reduction
# ---------------------------------------------------------------------------


def approximate(data: LevyData, mod: Modulator, eps: float, *,
                r_max: float = None, quad_order: int = None,
                zeta_max: float = 8.0, periods_per_panel: float = 16.0):
    """Finite-activity surrogate: jumps below eps dropped, sphere measure
    replaced by jump atoms of size eps, radial densities turned into
    quadrature atoms.

    Returns (LevyData with an atomic jump measure and empty sphere part,
    Modulator carrying a per-atom phi table).  The jump weights of the new
    atoms keep psi exactly in the compensated form, so psi(new) -> psi(old)
    pointwise as eps -> 0.  zeta_max bounds the frequencies at which the
    quadrature atoms stay accurate.
    """
    if eps <= 0.0:
        raise EpsTooLarge("eps must be positive")
    nu = data.nu

    if isinstance(nu, AtomsMeasure):
        keep = np.linalg.norm(nu.atoms, axis=1) > eps
        atoms = nu.atoms[keep]
        weights = nu.weights[keep]
        if mod.phi.kind == "table":
            phi_vals = mod.phi.table[keep]
        else:
            phi_vals = eval_modspec(mod.phi, atoms)
    elif isinstance(nu, (RadialProductMeasure, StableMeasure)):
        if isinstance(nu, StableMeasure):
            if r_max is None:
                r_max = 500.0 / eps
            radial = nu.as_radial(r_max=r_max, quad_order=quad_order or 64)
        else:
            radial = nu
            if r_max is None:
                r_max = radial.r_max
        order = quad_order or radial.quad_order
        if eps >= r_max:
            raise EpsTooLarge(f"eps = {eps} is not below the radial cutoff {r_max}")
        edges = radial_edges(eps, r_max, zeta_max, order,
                             periods_per_panel=periods_per_panel)
        nodes, node_w = panel_rule(edges, order)
        rho = radial.profile.density(nodes)
        atom_blocks = []
        weight_blocks = []
        phi_blocks = []
        for theta, aj in zip(radial.directions, radial.dir_weights):
            if aj == 0.0:
                continue
            atom_blocks.append(np.outer(nodes, theta))
            weight_blocks.append(aj * node_w * rho)
            if mod.phi.kind == "table":
                raise ModulatorUndefinedOnSupport(
                    "per-atom phi table cannot be carried through a radial conversion"
                )
            phi_blocks.append(eval_modspec(mod.phi, atom_blocks[-1]))
        atoms = np.concatenate(atom_blocks) if atom_blocks else np.zeros((0, data.n))
        weights = np.concatenate(weight_blocks) if weight_blocks else np.zeros(0)
        phi_vals = np.concatenate(phi_blocks) if phi_blocks else np.zeros(0, dtype=complex)
    else:
        raise MeasureValidationError(f"unknown jump measure type {type(nu).__name__}")

    # sphere atoms become jumps of size eps with mass b / eps^2, weighted by psi
    if not data.mu.is_empty:
        sphere_atoms = eps * data.mu.directions
        sphere_weights = data.mu.weights / (eps * eps)
        sphere_phi = _psi_values_at_sphere(mod, data.mu)
        atoms = np.concatenate([atoms, sphere_atoms]) if atoms.size else sphere_atoms
        weights = np.concatenate([weights, sphere_weights]) if weights.size else sphere_weights
        phi_vals = (np.concatenate([phi_vals, sphere_phi])
                    if phi_vals.size else np.asarray(sphere_phi, dtype=complex))

    new_nu = AtomsMeasure(atoms.reshape(-1, data.n), weights)
    new_data = replace(data, nu=new_nu, mu=SphericalMeasure.empty(data.n))
    # the sphere measure is gone, so a per-atom psi table has no support left
    new_psi = mod.psi if mod.psi.kind != "table" else constant_mod(1.0)
    new_mod = Modulator(phi=table_mod(phi_vals), psi=new_psi)
    return new_data, new_mod


def drift_reduce(data: LevyData):
    """Split off the net drift h so that psi(data) = psi(reduced) + i (zeta, h).

    The reduced data evaluates to the uncompensated jump sum plus the
    sphere part; requires a finite atomic jump measure.
    """
    nu = data.nu
    if not isinstance(nu, AtomsMeasure):
        raise RequiresFiniteMeasure(
            "drift reduction needs a finite atomic jump measure; run approximate() first"
        )
    inside = np.linalg.norm(nu.atoms, axis=1) <= 1.0
    compensator = (nu.weights[:, None] * nu.atoms * inside[:, None]).sum(axis=0)
    h = data.gamma - compensator
    reduced = replace(data, gamma=compensator)
    return reduced, h
