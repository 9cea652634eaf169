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
drift term i(zeta, gamma), and `exponents` returns the pair from one call.
On an atomic measure that call is one real-arithmetic pass over the atoms:
the phases D = (zeta, z_i) are formed once, and cos D - 1 and
sin D - D 1_{|z_i|<=1}, both from one tangent t = tan(D/2), are contracted
with both weight columns.  The boundary convention includes |z| = 1 in the
compensated region.  On a radial density each ray's integral has a closed
form, f(c) = Gamma(-alpha) (-ic)^alpha - ic / (1 - alpha) at c = (zeta,
theta_j), so the radial exponent is one (rows, directions) array expression
with no quadrature.
`cross_form` evaluates the bilinear integral the ratio-form symbol needs on
the same batches of rows: directly on atoms, and as the difference of the
closed-form jump parts on a radial density, where the compensators cancel.

Every weight is evaluated by `eval_modspec` on its support: phi per jump
atom, or per direction of a radial density, where it must be constant
along rays and weights that direction's integral; psi per sphere atom.
validate and every exponent entry point go through it, so a weight with no
value on the support is ModulatorUndefinedOnSupport wherever it is used.
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
    RequiresFiniteMeasure,
    ShapeMismatch,
)
from .quadrature import panel_rule, radial_edges

UNIT_SPHERE_TOL = 1e-12
# values in one (rows, atoms) temporary of the atom passes: about 512 kB, so
# a chunk's phases stay in cache through the tangent and both contractions
ATOM_CHUNK_VALUES = 1 << 16
QUAD_ORDER = 64   # Gauss-Legendre nodes per radial panel of approximate()
EULER = 0.5772156649015329
# zeta(2), ..., zeta(13): the series lgamma(1 - delta) = EULER delta + sum_k zeta(k) delta^k / k
# to about 1e-14 at |delta| = 0.1
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
         1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
         1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785)


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


@dataclass(frozen=True, eq=False)
class RadialProductMeasure:
    """Power-law density on finitely many rays:
    nu(E) = sum_j a_j I 1_E(r theta_j) coeff r^(-1-alpha) dr.

    alpha outside (0, 2) gives a non-integrable measure that validate()
    rejects.  The exponent takes each ray's integral in closed form, and
    approximate() cuts at 500 / eps.
    """

    alpha: float
    coeff: float
    directions: np.ndarray   # (J, n), unit vectors
    dir_weights: np.ndarray  # (J,)

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

    def as_radial(self) -> RadialProductMeasure:
        """Equivalent radial-product form (one dimension only)."""
        if self.n != 1:
            raise MeasureValidationError(
                "radial-product form of the stable measure is only available for n = 1"
            )
        return RadialProductMeasure(self.alpha, stable_coefficient(self.alpha, 1),
                                    np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))


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
        if isinstance(nu, (StableMeasure, AtomsMeasure, RadialProductMeasure)):
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


def eval_modspec(spec: ModSpec, points: np.ndarray, *, rays: bool = False, name: str = "phi"):
    """The weight's values on a support of points (M, n): a constant as a
    scalar, a table as itself, any other preset per point.  rays marks points
    on the rays of a radial density, where a weight must be constant along
    each ray.  ModulatorUndefinedOnSupport when the weight has no value there:
    a sign axis outside [0, n), a halfspace normal not of size n, a table not
    of size M, a table or ball on rays, or an unknown kind."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = points.shape
    if spec.kind == "constant":
        return spec.value
    if rays and spec.kind in ("table", "ball"):
        raise ModulatorUndefinedOnSupport(
            f"{name} {spec.kind} is not constant along the rays of a radial density")
    if spec.kind == "table":
        if spec.table.size != m:
            raise ModulatorUndefinedOnSupport(
                f"{name} table has {spec.table.size} entries for {m} support points")
        return spec.table
    if spec.kind == "sign":
        if not (isinstance(spec.axis, (int, np.integer)) and 0 <= spec.axis < n):
            raise ModulatorUndefinedOnSupport(
                f"{name} sign axis {spec.axis!r} is not an integer in [0, {n})")
        return np.sign(points[:, spec.axis]).astype(complex)
    if spec.kind == "halfspace":
        if len(spec.normal) != n:
            raise ModulatorUndefinedOnSupport(
                f"{name} halfspace normal has size {len(spec.normal)}, the support has "
                f"dimension {n}")
        return (points @ np.asarray(spec.normal, dtype=float) > 0.0).astype(complex)
    if spec.kind == "ball":
        return (np.linalg.norm(points, axis=1) <= spec.radius).astype(complex)
    if spec.kind == "phase":
        if n >= 2:
            ang = np.arctan2(points[:, 1], points[:, 0])
        else:
            ang = np.where(points[:, 0] >= 0.0, 0.0, np.pi)
        return np.exp(1j * spec.harmonic * ang)
    raise ModulatorUndefinedOnSupport(f"{name} has unknown kind {spec.kind!r}")


def _radial(nu) -> RadialProductMeasure:
    """The radial-product form of a stable or radial-product measure."""
    if isinstance(nu, StableMeasure):
        return nu.as_radial()
    if isinstance(nu, RadialProductMeasure):
        return nu
    raise MeasureValidationError(f"unknown jump measure type {type(nu).__name__}")


def _phi_values(nu, mod: Modulator):
    """phi on the jump support: per atom, or per direction of a radial density;
    a constant phi on a stable measure scales its closed form."""
    if isinstance(nu, AtomsMeasure):
        return eval_modspec(mod.phi, nu.atoms)
    if isinstance(nu, StableMeasure) and mod.phi.kind == "constant":
        return mod.phi.value
    return eval_modspec(mod.phi, _radial(nu).directions, rays=True)


def _phi_values_at_atoms(mod: Modulator, nu: AtomsMeasure) -> np.ndarray:
    return np.broadcast_to(eval_modspec(mod.phi, nu.atoms), nu.weights.shape)


def validate_modulator(mod: Modulator, data: "LevyData") -> Modulator:
    """phi on the jump support and psi on the sphere must have values there,
    bounded by 1 (a NaN fails too)."""
    sphere = data.mu.directions.reshape(-1, data.n)
    for name, vals in (("phi", _phi_values(data.nu, mod)),
                       ("psi", eval_modspec(mod.psi, sphere, name="psi"))):
        sup = float(np.max(np.abs(vals), initial=0.0))
        if not sup <= 1.0 + 1e-12:
            raise ModulatorExceedsOne(f"sup |{name}| = {sup:.6g} exceeds 1")
    return mod


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(data: LevyData, mod: Modulator = None) -> LevyData:
    """Check every structural invariant; returns the data unchanged."""
    d, n = data.d, data.n
    if data.A.shape != (d, n) or data.B.shape != (d, n):
        raise ShapeMismatch(
            f"A and B must be {d}x{n}, got {data.A.shape} and {data.B.shape}"
        )
    if data.gamma.shape != (n,):
        raise ShapeMismatch(f"gamma must have length {n}, got {data.gamma.shape}")
    for name, arr in (("gamma", data.gamma), ("A", data.A), ("B", data.B)):
        if not np.all(np.isfinite(arr)):
            raise MeasureValidationError(f"{name} must be finite")

    nu = data.nu
    if isinstance(nu, AtomsMeasure):
        if nu.atoms.shape[1] != n:
            raise ShapeMismatch(
                f"jump atoms live in dimension {nu.atoms.shape[1]}, expected {n}"
            )
        if nu.atoms.shape[0] != nu.weights.size:
            raise ShapeMismatch("atom/weight count mismatch")
        if not np.all(np.isfinite(nu.atoms)):
            raise MeasureValidationError("jump atoms must be finite")
        norms = np.linalg.norm(nu.atoms, axis=1)
        if np.any(norms == 0.0):
            raise AtomAtOrigin("jump atom at the origin")
        if np.any(nu.weights <= 0.0) or not np.all(np.isfinite(nu.weights)):
            raise MeasureValidationError("atom masses must be positive and finite")
    elif isinstance(nu, RadialProductMeasure):
        if nu.directions.shape[1] != n:
            raise ShapeMismatch("angular atoms have the wrong dimension")
        if not np.all(np.abs(np.linalg.norm(nu.directions, axis=1) - 1.0) <= UNIT_SPHERE_TOL):
            raise MeasureValidationError("radial directions must be unit vectors")
        if not np.all((nu.dir_weights >= 0.0) & np.isfinite(nu.dir_weights)):
            raise MeasureValidationError("radial dir_weights must be nonnegative and finite")
        if not 0.0 < nu.alpha < 2.0:  # exactly when min(r^2, 1) r^(-1-alpha) is integrable
            raise NonIntegrableMeasure(
                f"coeff r^(-1-alpha) is not integrable against min(r^2, 1): alpha = {nu.alpha}")
        if not (math.isfinite(nu.coeff) and nu.coeff >= 0.0):
            raise MeasureValidationError(
                f"radial coeff must be nonnegative and finite, got {nu.coeff}")
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
        if not np.all(np.abs(np.linalg.norm(data.mu.directions, axis=1) - 1.0)
                      <= UNIT_SPHERE_TOL):
            raise MeasureValidationError("sphere directions must be unit vectors")
        if not np.all((data.mu.weights >= 0.0) & np.isfinite(data.mu.weights)):
            raise MeasureValidationError("sphere weights must be nonnegative and finite")

    if mod is not None:
        validate_modulator(mod, data)
    return data


# ---------------------------------------------------------------------------
# exponent evaluation
# ---------------------------------------------------------------------------


def _sphere_part(data: LevyData, Z1: np.ndarray, Z2: np.ndarray, mods) -> np.ndarray:
    """-sum_j b_j (z1, theta_j)(z2, theta_j) psi_j per modulator, over row pairs
    of Z1 and Z2: the sphere part of the cross form, and at Z1 = Z2 twice the
    sphere part of the exponent."""
    if data.mu.is_empty:
        return np.zeros((Z1.shape[0], len(mods)), dtype=complex)
    dirs = data.mu.directions.T  # (n, M)
    w = np.stack([data.mu.weights * eval_modspec(mod.psi, data.mu.directions, name="psi")
                  for mod in mods], axis=1)
    return -((Z1 @ dirs) * (Z2 @ dirs)) @ w


def _expm1i_parts(D: np.ndarray):
    """(cos D - 1, sin D), the real and imaginary parts of e^{iD} - 1, from
    one t = tan(D/2): cos D - 1 = -2 t^2 / (1 + t^2), sin D = 2 t / (1 + t^2).

    One tangent costs a fraction of a sine, and -2 t^2 / (1 + t^2) keeps the
    relative precision of cos D - 1 ~ -D^2 / 2 at small |D|, which
    Re(e^{iD}) - 1 loses.  No double lies within about 1e-19 of an odd
    multiple of pi/2, so |t| stays below about 1e19 and t^2 cannot overflow.
    """
    t = np.tan(0.5 * D)
    C = t * t
    h = np.add(C, 1.0)
    np.divide(2.0, h, out=h)    # 2 / (1 + t^2)
    C *= h
    np.negative(C, out=C)
    t *= h
    return C, t


def _phases(Z: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Z atoms^T.  For n = 1 it is the broadcast product Z * atoms[:, 0],
    bitwise equal and several times cheaper than a matmul with inner
    dimension 1."""
    return Z * atoms[:, 0] if atoms.shape[1] == 1 else Z @ atoms.T


def _atoms_jump_part(nu: AtomsMeasure, Z: np.ndarray, phis) -> np.ndarray:
    """Exact compensated atom sums, one column per weight in phis (a per-atom
    array or one constant), over rows of Z: (K, len(phis)).

    One pass serves every weight: each chunk of atoms forms the real phases
    D = Z atoms^T once and contracts C = cos D - 1 and S = sin D - D 1_{|z|<=1}
    (_expm1i_parts, one tangent per phase) with the real and imaginary parts
    of w = mass * phi, as (C + iS) w = (C w_r - S w_i) + i (C w_i + S w_r).
    No complex exponential is formed.  The chunks keep each (K, chunk)
    temporary at ATOM_CHUNK_VALUES values, so million-atom quadrature
    measures are summed in cache.
    """
    k = len(phis)
    inside = np.linalg.norm(nu.atoms, axis=1) <= 1.0
    chunk = max(1, ATOM_CHUNK_VALUES // max(1, Z.shape[0]))
    out = np.zeros((Z.shape[0], k), dtype=complex)
    for m0 in range(0, nu.atoms.shape[0], chunk):
        sl = slice(m0, m0 + chunk)
        w = np.stack([nu.weights[sl] * (p if np.ndim(p) == 0 else p[sl]) for p in phis], axis=1)
        D = _phases(Z, nu.atoms[sl])
        C, S = _expm1i_parts(D)
        np.subtract(S, D, out=S, where=inside[sl])
        W = np.concatenate([w.real, w.imag], axis=1)
        CW, SW = C @ W, S @ W
        out += (CW[:, :k] - SW[:, k:]) + 1j * (CW[:, k:] + SW[:, :k])
    return out


def _ray_integrals(C: np.ndarray, alpha: float) -> np.ndarray:
    """f(c) = I_0^inf (e^{icr} - 1 - icr 1_{r<=1}) r^(-1-alpha) dr at every
    entry c of C, in closed form: f(c) = Gamma(-alpha) (-ic)^alpha - ic / (1 - alpha).

    Both parts are formed at x = |c| and the imaginary part takes the sign of
    c, so f(-c) = conj f(c) exactly and f(0) = 0.  Near alpha = 1 the pole of
    Gamma(-alpha) cancels the one of 1 / (1 - alpha); for |delta| < 0.1,
    delta = alpha - 1, f is written without either pole as

        f(x) = -ix (e^{delta h} - 1) / delta,
        h = (lgamma(1 - delta) - log1p(delta)) / delta + log x - i pi/2,

    with lgamma(1 - delta) / delta = EULER + sum_k zeta(k) delta^(k-1) / k
    and e^{delta h} - 1 = expm1(a) + e^a (e^{-i pi delta/2} - 1),
    a = delta Re h, the last factor from _expm1i_parts.  At delta = 0 it is
    the limit -ix h.
    """
    x = np.abs(C)
    delta = alpha - 1.0
    if abs(delta) >= 0.1:
        g = math.gamma(-alpha) * x ** alpha
        re = g * math.cos(0.5 * math.pi * alpha)
        im = x / delta - g * math.sin(0.5 * math.pi * alpha)
    else:
        s = EULER + sum(z * delta ** (k - 1) / k for k, z in enumerate(_ZETA, 2))
        s -= math.log1p(delta) / delta if delta else 1.0
        re_h = s + np.log(x, out=np.zeros_like(x), where=x > 0.0)
        if delta:
            cb, sb = _expm1i_parts(np.full(1, -0.5 * math.pi * delta))
            a = delta * re_h
            ea = np.exp(a)
            re_e, im_e = (np.expm1(a) + ea * cb) / delta, ea * (sb / delta)
        else:
            re_e, im_e = re_h, -0.5 * math.pi
        re, im = x * im_e, -x * re_e
    return re + 1j * (np.sign(C) * im)


def _radial_jump_part(nu, phis, Z: np.ndarray) -> np.ndarray:
    """Jump part of a stable or radial-product measure over rows of Z, one
    column per weight in phis (a constant or its values per direction).

    A stable measure with only constant weights scales its closed form
    -|z|^alpha.  Otherwise every row and direction theta_j goes through one
    (K, J) evaluation of the ray integral f((z, theta_j)), contracted with
    coeff a_j phi_j.
    """
    if isinstance(nu, StableMeasure) and all(np.ndim(p) == 0 for p in phis):
        return -np.linalg.norm(Z, axis=1)[:, None].astype(complex) ** nu.alpha * np.array(phis)
    radial = _radial(nu)
    W = np.stack([radial.coeff * radial.dir_weights * p for p in phis], axis=1)
    return _ray_integrals(Z @ radial.directions.T, radial.alpha) @ W


def _exponent(data: LevyData, mods, Z: np.ndarray) -> np.ndarray:
    """Jump part weighted by phi plus sphere part weighted by psi over rows of
    Z, one column per modulator in mods; atoms serve all columns in one pass."""
    nu = data.nu
    phis = [_phi_values(nu, mod) for mod in mods]
    if isinstance(nu, AtomsMeasure):
        jump = _atoms_jump_part(nu, Z, phis)
    else:
        jump = _radial_jump_part(nu, phis, Z)
    return jump + 0.5 * _sphere_part(data, Z, Z, mods)


def _rows(data: LevyData, zeta) -> np.ndarray:
    """A point or batch zeta as rows (K, n); ShapeMismatch for another dimension."""
    Z = np.atleast_2d(np.asarray(zeta, dtype=float))
    if Z.shape[1] != data.n:
        raise ShapeMismatch(f"zeta must have dimension {data.n}, got {Z.shape[1]}")
    return Z


def _evaluate(data: LevyData, mods, zeta, drift: bool):
    """_exponent's columns at a point or rows zeta, drift i(zeta, gamma) on the first if asked."""
    Z = _rows(data, zeta)
    out = _exponent(data, mods, Z)
    if drift:
        out[:, 0] += 1j * (Z @ data.gamma)
    return [complex(v) for v in out[0]] if np.ndim(zeta) == 1 else list(out.T)


def exponents(data: LevyData, mod: Modulator, zeta):
    """(psi, psi_tilde) at zeta from one pass over the atoms; batch rows allowed."""
    return tuple(_evaluate(data, (IDENTITY_MOD, mod), zeta, drift=True))


def psi(data: LevyData, zeta):
    """The characteristic exponent at zeta; accepts a batch (K, n) of rows."""
    return _evaluate(data, (IDENTITY_MOD,), zeta, drift=True)[0]


def psi_tilde(data: LevyData, mod: Modulator, zeta):
    """The modulated exponent at zeta (no drift term); batch rows allowed."""
    return _evaluate(data, (mod,), zeta, drift=False)[0]


def _atoms_cross_part(nu: AtomsMeasure, Z1: np.ndarray, Z2: np.ndarray, phi) -> np.ndarray:
    """sum_i (e^{i(z1,z_i)} - 1)(e^{i(z2,z_i)} - 1) phi_i w_i over row pairs,
    in real arithmetic on the tangent parts (_expm1i_parts), in chunks of
    atoms that keep each (K, chunk) temporary at ATOM_CHUNK_VALUES values."""
    w = nu.weights * phi
    W = np.stack([w.real, w.imag], axis=1)
    out = np.zeros(Z1.shape[0], dtype=complex)
    chunk = max(1, ATOM_CHUNK_VALUES // max(1, Z1.shape[0]))
    for m0 in range(0, w.size, chunk):
        at = nu.atoms[m0:m0 + chunk]
        C1, S1 = _expm1i_parts(_phases(Z1, at))
        C2, S2 = _expm1i_parts(_phases(Z2, at))
        RW = (C1 * C2 - S1 * S2) @ W[m0:m0 + chunk]
        IW = (C1 * S2 + S1 * C2) @ W[m0:m0 + chunk]
        out += (RW[:, 0] - IW[:, 1]) + 1j * (RW[:, 1] + IW[:, 0])
    return out


def cross_form(data: LevyData, mod: Modulator, zeta1, zeta2):
    """The bilinear cross integral

        I (e^{i(z1,z)}-1)(e^{i(z2,z)}-1) phi nu(dz) - I (z1,th)(z2,th) psi mu(dth),

    which equals psi_tilde(z1+z2) - psi_tilde(z1) - psi_tilde(z2).  zeta1 and
    zeta2 are points or equal batches (K, n) of rows, as in psi.  Atoms are
    summed directly in one pass, not from exponent differences, so on an
    atomic measure the ratio-form symbol is an independent check of the
    q-form.  On a stable or radial-product measure it is that difference of
    the closed-form jump parts, whose compensators cancel.
    """
    Z1, Z2 = _rows(data, zeta1), _rows(data, zeta2)
    if Z1.shape != Z2.shape:
        raise ShapeMismatch(f"zeta1 and zeta2 hold {Z1.shape} and {Z2.shape} rows")
    nu, phi = data.nu, _phi_values(data.nu, mod)
    if isinstance(nu, AtomsMeasure):
        out = _atoms_cross_part(nu, Z1, Z2, phi)
    else:
        rows = np.concatenate([Z1 + Z2, Z1, Z2])
        j12, j1, j2 = _radial_jump_part(nu, [phi], rows).reshape(3, -1)
        out = j12 - j1 - j2
    out += _sphere_part(data, Z1, Z2, (mod,))[:, 0]
    return complex(out[0]) if np.ndim(zeta1) == 1 else out


# ---------------------------------------------------------------------------
# finite-activity approximation and drift reduction
# ---------------------------------------------------------------------------


def approximate(data: LevyData, mod: Modulator, eps: float, *, zeta_max: float = 8.0):
    """Finite-activity surrogate: jumps below eps dropped, sphere measure
    replaced by jump atoms of size eps, radial densities turned into
    quadrature atoms.

    Returns (LevyData with an atomic jump measure and empty sphere part,
    Modulator carrying a per-atom phi table).  The jump weights of the new
    atoms keep psi exactly in the compensated form, so psi(new) -> psi(old)
    pointwise as eps -> 0.  zeta_max bounds the frequencies at which the
    quadrature atoms stay accurate.  The radial panels run from eps to
    500 / eps with QUAD_ORDER nodes, 16 oscillation periods of zeta_max at
    most per panel; EpsTooLarge when eps is not below 500 / eps.  eps must
    lie in (0, inf) (EpsTooLarge) and zeta_max be positive and finite
    (ValueError): a NaN would drop every atom or lift the width cap.
    """
    if not 0.0 < eps < np.inf:
        raise EpsTooLarge(f"eps = {eps!r} is not in (0, inf)")
    if not 0.0 < zeta_max < np.inf:
        raise ValueError(f"zeta_max = {zeta_max!r} is not a positive finite number")
    nu = data.nu

    if isinstance(nu, AtomsMeasure):
        keep = np.linalg.norm(nu.atoms, axis=1) > eps
        atoms = nu.atoms[keep]
        weights = nu.weights[keep]
        phi_vals = _phi_values_at_atoms(mod, nu)[keep]
    else:
        radial = _radial(nu)
        r_max = 500.0 / eps
        if eps >= r_max:
            raise EpsTooLarge(f"eps = {eps} is not below the radial cutoff 500 / eps = {r_max}")
        edges = radial_edges(eps, r_max, zeta_max, QUAD_ORDER, periods_per_panel=16.0)
        nodes, node_w = panel_rule(edges, QUAD_ORDER)
        used = radial.dir_weights != 0.0
        # one block of quadrature atoms nodes * theta_j per used direction
        atoms = (radial.directions[used][:, None, :] * nodes[:, None]).reshape(-1, data.n)
        weights = (radial.dir_weights[used][:, None] * node_w
                   * (radial.coeff * nodes ** (-1.0 - radial.alpha))).ravel()
        phi_vals = np.broadcast_to(eval_modspec(mod.phi, atoms, rays=True), weights.shape)

    # sphere atoms become jumps of size eps with mass b / eps^2, weighted by psi
    if not data.mu.is_empty:
        atoms = np.concatenate([atoms, eps * data.mu.directions])
        weights = np.concatenate([weights, data.mu.weights / (eps * eps)])
        psi_vals = eval_modspec(mod.psi, data.mu.directions, name="psi")
        phi_vals = np.concatenate([phi_vals, np.broadcast_to(psi_vals, data.mu.weights.shape)])

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
