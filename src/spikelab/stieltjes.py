"""Self-consistent spectral-law solver on the real axis outside the bulk.

The limiting spectral law of the undeformed noise Gram matrix is pinned down
by a scalar fixed-point equation.  Its Stieltjes transform m(z) is negative,
increasing, and invertible on (lambda_plus, inf), with inverse

    f(w) = -1/w + phi * sum_i p_i s_i / (1 + s_i w)

over the atoms (s_i, p_i) of the population spectral distribution nu.  The
rightmost support edge is lambda_plus = f(w_plus), where w_plus is the unique
stationary point of f on (-1/s_max, 0).  The pair (nu, phi) fixes the noise
bulk, and ``find_w_plus`` solves it once into an ``EdgeData`` holding nu,
phi and the edge; m(z), theta(sigma_tilde) and the divided difference of m
read everything from that one object.  All functions here work with
eigenvalue atoms only; no matrix inverses are formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SubcriticalError
from .spectra import SpectralDistribution

_POLE_TOL = 1e-14


@dataclass(frozen=True)
class EdgeData:
    """The noise bulk: spectral distribution ``nu``, aspect ratio ``phi``,
    and the critical point and rightmost support edge they determine."""

    w_plus: float
    lambda_plus: float
    f_second_at_w_plus: float
    phi: float
    nu: SpectralDistribution

    @property
    def threshold(self) -> float:
        """Detachment threshold for population spikes: -1/w_plus."""
        return -1.0 / self.w_plus

    @property
    def sigma_tw(self) -> float:
        """Edge fluctuation scale (f''(w_plus) / 2) ** (1/3).

        Some write-ups quote the curvature argument as lambda_plus, but f
        takes w-arguments; evaluating f'' at w_plus is the internally
        consistent reading (it reproduces the classical isotropic value
        (1 + sqrt(phi)) (1 + 1/sqrt(phi))^{1/3}), so that is what this
        property exposes.
        """
        return (self.f_second_at_w_plus / 2.0) ** (1.0 / 3.0)


def f_eval(w: float, nu: SpectralDistribution, phi: float):
    """Evaluate (f, f', f'') at w.

    Raises DomainError at a pole, i.e. when 1 + s*w vanishes for an atom s.
    """
    s, p = nu.values, nu.weights
    if w == 0.0:
        raise DomainError("f is singular at w = 0")
    denom = 1.0 + s * w
    bad = np.abs(denom) < _POLE_TOL
    if bad.any():
        raise DomainError(
            f"pole of f at w={w!r}: atom s={s[bad][0]!r} gives 1 + s*w ~ 0"
        )
    f0 = -1.0 / w + phi * float(p @ (s / denom))
    f1 = 1.0 / w**2 - phi * float(p @ (s / denom) ** 2)
    f2 = -2.0 / w**3 + 2.0 * phi * float(p @ (s / denom) ** 3)
    return f0, f1, f2


def _bracket_grid(n=64):
    # points in (0, 1) accumulating geometrically at both endpoints
    half = np.geomspace(1e-12, 0.5, n // 2)
    return np.concatenate([half, 1.0 - half[::-1]])


def find_w_plus(nu: SpectralDistribution, phi: float, grid_size: int = 64) -> EdgeData:
    """Locate the critical point w_plus in (-1/s_max, 0) and the edge.

    f' decreases to -inf at the left endpoint (the top atom's pole) and
    grows like 1/w^2 at 0-, with a unique zero in between.  A geometric
    grid accumulating at both endpoints brackets the sign change, bisection
    shrinks it below 1e-14 / s_max, and Newton steps polish the root.
    """
    sigma1 = nu.top
    if sigma1 <= 0:
        raise DomainError("degenerate spectral distribution: top atom is 0")
    if phi <= 0:
        raise DomainError(f"phi must be positive, got {phi}")

    left = -1.0 / sigma1
    ws = left * (1.0 - _bracket_grid(grid_size))  # ascending in w
    fps = np.array([f_eval(w, nu, phi)[1] for w in ws])
    sign_change = np.nonzero((fps[:-1] < 0) & (fps[1:] >= 0))[0]
    if sign_change.size == 0:
        raise NumericalError(
            "failed to bracket the stationary point of f'; "
            f"grid values ranged over [{fps.min():.3e}, {fps.max():.3e}]"
        )
    lo, hi = ws[sign_change[0]], ws[sign_change[0] + 1]

    target_width = 1e-14 / sigma1
    while hi - lo > target_width:
        mid = 0.5 * (lo + hi)
        if f_eval(mid, nu, phi)[1] < 0:
            lo = mid
        else:
            hi = mid

    w = 0.5 * (lo + hi)
    for _ in range(8):  # Newton polish on f'
        _, f1, f2 = f_eval(w, nu, phi)
        step = f1 / f2
        if not np.isfinite(step):
            break
        w_new = w - step
        if not lo <= w_new <= hi:
            break
        w = w_new
        if abs(step) < 1e-17 * abs(w):
            break

    f0, f1, f2 = f_eval(w, nu, phi)
    if abs(f1) > 1e-10 / w**2:
        raise NumericalError(f"stationary-point residual too large: f'={f1:.3e}")
    return EdgeData(w_plus=w, lambda_plus=f0, f_second_at_w_plus=f2, phi=phi, nu=nu)


def solve_m(z: float, edge: EdgeData) -> float:
    """Solve the fixed-point equation for m(z) at real z above the edge.

    Returns the unique m in (w_plus, 0) with f(m) = z; only z >= lambda_plus
    + 1e-8 is supported (no complex continuation into the bulk).
    """
    nu, phi = edge.nu, edge.phi
    if z <= edge.lambda_plus + 1e-8:
        raise DomainError(
            f"z={z!r} is not above the spectral edge {edge.lambda_plus!r}"
        )

    # f is increasing from lambda_plus to +inf on (w_plus, 0)
    lo = edge.w_plus * (1.0 - 1e-12)
    hi = -1e-30
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if f_eval(mid, nu, phi)[0] < z:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-18 * abs(edge.w_plus):
            break

    m = 0.5 * (lo + hi)
    tol = 1e-10 * max(1.0, abs(z))
    for _ in range(8):  # Newton polish on f(m) - z
        f0, f1, _ = f_eval(m, nu, phi)
        if abs(f0 - z) <= 1e-2 * tol or f1 <= 0:
            break
        m_new = m - (f0 - z) / f1
        if not edge.w_plus < m_new < 0:
            break
        m = m_new

    if abs(f_eval(m, nu, phi)[0] - z) > tol:
        raise NumericalError(f"m(z) solver residual exceeds {tol:.1e} at z={z!r}")
    return m


def m_derivative_and_divided_difference(z_k: float, z_j: float,
                                        edge: EdgeData) -> float:
    """Divided difference m[z_k, z_j], equal to m'(z_k) on the diagonal.

    m' comes from the inverse-function rule 1 / f'(m(z)); off-diagonal the
    plain quotient (m(z_k) - m(z_j)) / (z_k - z_j) is returned.
    """
    if z_k == z_j:
        m = solve_m(z_k, edge)
        return 1.0 / f_eval(m, edge.nu, edge.phi)[1]
    mk = solve_m(z_k, edge)
    mj = solve_m(z_j, edge)
    return (mk - mj) / (z_k - z_j)


def theta_map(sigma_tilde: float, edge: EdgeData):
    """Almost-sure spike location theta(sigma_tilde) and its derivative.

        theta  = sigma_tilde + phi * sum_i p_i sigma_tilde s_i / (sigma_tilde - s_i)
        theta' = 1 - phi * sum_i p_i s_i^2 / (sigma_tilde - s_i)^2

    Valid for strictly supercritical sigma_tilde > -1/w_plus; equals
    f(-1/sigma_tilde) by the inverse relation, which ties theta to the edge.
    """
    threshold = edge.threshold
    if sigma_tilde <= threshold:
        raise SubcriticalError(sigma_tilde, threshold)

    s, p, phi = edge.nu.values, edge.nu.weights, edge.phi
    gap = sigma_tilde - s
    near = np.abs(gap) < 1e-10 * sigma_tilde
    if near.any():
        raise NumericalError(
            f"sigma_tilde={sigma_tilde!r} is within 1e-10 relative of the "
            f"population eigenvalue {s[near][0]!r}"
        )
    theta = sigma_tilde + phi * float(p @ (sigma_tilde * s / gap))
    theta_prime = 1.0 - phi * float(p @ (s / gap) ** 2)
    return theta, theta_prime
