"""Independent references for the benchmark's correctness checks.

Everything here is short numpy written from the closed forms of the
construction, not from the library: the library's spectral pairing,
Gaussian spectral value and grid tabulation are what is being checked.

Conventions (the same as the construction's):
  fhat(xi) = I f(x) e^{+i(xi,x)} dx,   lattice xi_k = 2 pi k / L;
  psi(z)   = sum_m w_m (e^{i(z,z_m)} - 1 - i(z,z_m) 1{|z_m| <= 1})
             - 1/2 sum_j b_j (z,theta_j)^2 + i(z,gamma);
  psi~(z)  = the same with w_m -> phi_m w_m, b_j -> psi_j b_j, no drift;
  m(xi)    = e^{ps(b)+ps(a)} [pt(b+a) - pt(b) - pt(a)] q(ps(b+a) - ps(b) - ps(a)),
             b = B^T xi, a = -A^T xi, q(z) = (e^z - 1)/z.
"""

import math

import numpy as np


def lattice(L, N, d):
    """All lattice frequencies as a (N^d, d) array in FFT index order."""
    axis = 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def space_axis(L, N):
    return -L / 2.0 + L / N * np.arange(N)


def bump_hat(xi, center, width):
    """Transform of exp(-|x - c|^2 / (2 w^2)), one factor per axis:
    w sqrt(2 pi) exp(i xi c - w^2 xi^2 / 2)."""
    xi = np.atleast_2d(xi)
    c = np.broadcast_to(np.asarray(center, dtype=float), (xi.shape[1],))
    out = np.ones(xi.shape[0], dtype=complex)
    for j in range(xi.shape[1]):
        out *= width * math.sqrt(2.0 * math.pi) * np.exp(
            1j * xi[:, j] * c[j] - 0.5 * (width * xi[:, j]) ** 2)
    return out


def bump_lp_power(width, d, p):
    """I |exp(-|x|^2 / (2 w^2))|^p dx = (w sqrt(2 pi / p))^d."""
    return (width * math.sqrt(2.0 * math.pi / p)) ** d


def _q(z):
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-12
    return np.where(small, 1.0 + 0.5 * z, np.expm1(z) / np.where(small, 1.0, z))


def exponent(model, Z, tilted):
    """psi (tilted=False) or psi~ (tilted=True) of an atomic model at rows of Z."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    atoms = np.asarray(model["atoms"], dtype=float)
    w = np.asarray(model["weights"], dtype=complex)
    if tilted:
        w = w * np.asarray(model.get("phi", np.ones(len(atoms))), dtype=complex)
    dots = Z @ atoms.T
    inside = np.linalg.norm(atoms, axis=1) <= 1.0
    out = (np.exp(1j * dots) - 1.0 - 1j * dots * inside) @ w
    if model.get("sphere"):
        dirs = np.asarray(model["sphere"], dtype=float)
        b = np.asarray(model["sphere_weights"], dtype=complex)
        if tilted:
            b = b * np.asarray(model.get("psi", np.ones(len(dirs))), dtype=complex)
        out = out - 0.5 * ((Z @ dirs.T) ** 2) @ b
    if not tilted and model.get("gamma") is not None:
        out = out + 1j * (Z @ np.asarray(model["gamma"], dtype=float))
    return out


def q_form(model, xi):
    """The q-form symbol of an atomic model at rows of xi."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    b = xi @ np.asarray(model["B"], dtype=float)
    a = -(xi @ np.asarray(model["A"], dtype=float))
    ps = [exponent(model, z, False) for z in (b + a, b, a)]
    pt = [exponent(model, z, True) for z in (b + a, b, a)]
    return (np.exp(ps[1] + ps[2]) * (pt[0] - pt[1] - pt[2])
            * _q(ps[0] - ps[1] - ps[2]))


def limit_form(model, xi):
    """[pt(a) + pt(-a)] / [ps(a) + ps(-a)], a = A^T xi; 0 where the
    denominator (2 Re ps(a)) is not negative."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    a = xi @ np.asarray(model["A"], dtype=float)
    num = exponent(model, a, True) + exponent(model, -a, True)
    den = exponent(model, a, False) + exponent(model, -a, False)
    good = den.real < -1e-300
    return np.where(good, num / np.where(good, den, 1.0), 0.0)


def gaussian(A, B, K, xi, s):
    """[e^{-s|a-b|^2} - e^{-s(|a|^2+|b|^2)}] (a, K b) / (a, b), a = A^T xi,
    b = B^T xi; at (a, b) = 0 its limit 2 s e^{-s(|a|^2+|b|^2)} (a, K b)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    a = xi @ np.asarray(A, dtype=float)
    b = xi @ np.asarray(B, dtype=float)
    aKb = np.einsum("kj,kj->k", a.astype(complex), b @ np.asarray(K, dtype=complex).T)
    ab = np.einsum("kj,kj->k", a, b)
    prod = np.exp(-s * ((a * a).sum(axis=1) + (b * b).sum(axis=1)))
    near = np.abs(2.0 * s * ab) < 1.0
    safe = np.where(ab == 0.0, 1.0, ab)
    diff = np.where(near, prod * np.expm1(2.0 * s * np.where(near, ab, 0.0)),
                    np.exp(-s * ((a - b) ** 2).sum(axis=1)) - prod)
    return np.where(ab == 0.0, 2.0 * s * prod, diff / safe) * aKb


def stable(alpha, xi):
    """-i tan(pi alpha / 2) sgn(xi) (e^{-|2 xi|^alpha} - e^{-2|xi|^alpha}).

    The sign-weighted stable model (A = -1, B = 1, phi = sgn) has
    psi(c) = -|c|^alpha and, for the sign-weighted uncompensated jump
    integral, i tan(pi alpha / 2) sgn(c) |c|^alpha; the compensator terms are
    linear in c and cancel in pt(2 xi) - 2 pt(xi).  Putting these into the
    q-form gives the expression above.
    """
    x = np.asarray(xi, dtype=float)
    return (-1j * math.tan(math.pi * alpha / 2.0) * np.sign(x)
            * (np.exp(-np.abs(2.0 * x) ** alpha) - np.exp(-2.0 * np.abs(x) ** alpha)))


def riesz(xi):
    """-2 xi_1 xi_2 / |xi|^2, 0 at xi = 0."""
    xi = np.atleast_2d(xi)
    n2 = (xi * xi).sum(axis=1)
    return np.where(n2 > 0, -2.0 * xi[:, 0] * xi[:, 1] / np.where(n2 > 0, n2, 1.0), 0.0)


def log_ratio(xi, j):
    """ln(1 + xi_j^-2) / sum_k ln(1 + xi_k^-2), 0 on the coordinate axes."""
    xi = np.atleast_2d(xi)
    ok = np.all(xi != 0.0, axis=1)
    safe = np.where(xi != 0.0, xi, 1.0)
    terms = np.log1p(safe ** -2.0)
    return np.where(ok, terms[:, j] / terms.sum(axis=1), 0.0)


def p_star_minus_one(p):
    return max(p - 1.0, 1.0 / (p - 1.0))


def spectral_pairing(m_vals, L, d, f_hat, g_hat_neg):
    """(2 pi)^{-d} sum_k m(xi_k) fhat(xi_k) ghat(-xi_k) dxi^d on the lattice."""
    dxi = (2.0 * np.pi / L) ** d
    return complex(np.sum(m_vals * f_hat * g_hat_neg) * dxi / (2.0 * np.pi) ** d)


def apply_1d(m_vals, xi, f_hat, x, L):
    """(M f)(x) = (2 pi)^{-1} sum_k m(xi_k) fhat(xi_k) e^{-i xi_k x} dxi by a direct sum."""
    return np.exp(-1j * np.outer(x, xi)) @ (m_vals * f_hat) / L
