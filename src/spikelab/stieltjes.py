"""Self-consistent spectral-law solver on the real axis outside the bulk.

The limiting spectral law of the undeformed noise Gram matrix is pinned down
by a scalar fixed-point equation.  Its Stieltjes transform m(z) is negative,
increasing, and invertible on (lambda_plus, inf), with inverse

    f(w) = -1/w + phi * sum_i p_i s_i / (1 + s_i w)

over the atoms (s_i, p_i) of the population spectral distribution nu.  The
rightmost support edge is lambda_plus = f(w_plus), where w_plus is the unique
stationary point of f on (-1/s_max, 0).  Both roots, w_plus and m(z) with
f(m) = z on (w_plus, 0), are found by ``spectra.newton_in``: Newton steps
kept inside a bracket.  The pair (nu, phi) fixes the noise bulk, and
``find_w_plus`` solves it once into an ``EdgeData`` holding nu, phi and the
edge; m(z) and theta(sigma_tilde) read everything from that one object,
and so does ``check_assumptions``, which reports the regularity margins of
(nu, phi, w_plus) without raising.
The divided difference m[z, z*] is formed in ``locallaw.divided_difference``
from the m and m' its Pi(z) already holds.  All functions here work with
eigenvalue atoms only; no matrix inverses are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError, SubcriticalError
from .spectra import SpectralDistribution, newton_in

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


def find_w_plus(nu: SpectralDistribution, phi: float) -> EdgeData:
    """Locate the critical point w_plus in (-1/s_max, 0) and the edge.

    f' decreases to -inf at the left endpoint (the top atom's pole) and
    grows like 1/w^2 at 0-, with a unique zero in between.  There
    g = 1 - w^2 f' = phi w^2 sum_i p_i (s_i / (1 + s_i w))^2 crosses 1, so
    w_plus is the root of h = g^{-1/2} - 1, which increases and is nearly
    linear at the pole, where f' is not: Newton on f' climbs out of the
    pole a third of the way per step.  ``newton_in`` finds that root
    inside (-1/s_max, 0), shrunk by 1e-12 relative at both ends, starting
    from the isotropic value -1 / (s_max (1 + sqrt(phi))).
    """
    sigma1 = nu.top
    if sigma1 <= 0:
        raise DomainError("degenerate spectral distribution: top atom is 0")
    if phi <= 0:
        raise DomainError(f"phi must be positive, got {phi}")

    lo, hi = -(1.0 - 1e-12) / sigma1, -1e-12 / sigma1
    f1_lo, f1_hi = f_eval(lo, nu, phi)[1], f_eval(hi, nu, phi)[1]
    if not f1_lo < 0 <= f1_hi:
        raise NumericalError(
            "failed to bracket the stationary point of f'; "
            f"f' is {f1_lo:.3e} and {f1_hi:.3e} at the bracket's ends"
        )

    def h(w):
        _, f1, f2 = f_eval(w, nu, phi)
        g = 1.0 - w * w * f1
        return g**-0.5 - 1.0, 0.5 * g**-1.5 * (2.0 * w * f1 + w * w * f2)

    w = newton_in(h, lo, hi, -1.0 / (sigma1 * (1.0 + math.sqrt(phi))))

    f0, f1, f2 = f_eval(w, nu, phi)
    if abs(f1) > 1e-10 / w**2:
        raise NumericalError(f"stationary-point residual too large: f'={f1:.3e}")
    return EdgeData(w_plus=w, lambda_plus=f0, f_second_at_w_plus=f2, phi=phi, nu=nu)


def solve_m(z: float, edge: EdgeData) -> float:
    """Solve the fixed-point equation for m(z) at real z above the edge.

    Returns the unique m in (w_plus, 0) with f(m) = z; only z >= lambda_plus
    + 1e-8 is supported (no complex continuation into the bulk).  f is
    increasing and convex there and f(w) >= -1/w, so Newton's iteration
    (``newton_in``) starts at -1/z, right of the root.
    """
    nu, phi = edge.nu, edge.phi
    if z <= edge.lambda_plus + 1e-8:
        raise DomainError(
            f"z={z!r} is not above the spectral edge {edge.lambda_plus!r}"
        )

    def residual(m):
        f0, f1, _ = f_eval(m, nu, phi)
        return f0 - z, f1

    m = newton_in(residual, edge.w_plus * (1.0 - 1e-12), -1e-30, -1.0 / z)
    tol = 1e-10 * max(1.0, abs(z))
    if abs(f_eval(m, nu, phi)[0] - z) > tol:
        raise NumericalError(f"m(z) solver residual exceeds {tol:.1e} at z={z!r}")
    return m


def theta_map(sigma_tilde: float, edge: EdgeData):
    """theta(sigma_tilde) and its derivative theta' (see ``theta_terms``)."""
    theta, deficit = theta_terms(sigma_tilde, edge)
    return theta, 1.0 - deficit


def theta_terms(sigma_tilde: float, edge: EdgeData):
    """The almost-sure spike location theta(sigma_tilde) and 1 - theta',
    summed directly so that a strong spike keeps its digits:

        theta      = sigma_tilde + phi * sum_i p_i sigma_tilde s_i / (sigma_tilde - s_i)
        1 - theta' = phi * sum_i p_i s_i^2 / (sigma_tilde - s_i)^2

    Valid for strictly supercritical sigma_tilde > -1/w_plus; theta equals
    f(-1/sigma_tilde) by the inverse relation, which ties it to the edge.
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
    return (sigma_tilde + phi * float(p @ (sigma_tilde * s / gap)),
            phi * float(p @ (s / gap) ** 2))


@dataclass(frozen=True)
class AssumptionCheck:
    ok: bool
    margin: float


@dataclass(frozen=True)
class AssumptionReport:
    """Result of checking the regularity assumptions at tolerance tau.

    Margins are signed; negative means violated, except ``edge`` whose
    margin is the measured value w_plus + 1/sigma_1 (pass iff >= tau).
    """

    tau: float
    phi: float
    aspect_ratio: AssumptionCheck    # phi in [tau, 1/tau]
    norm_bound: AssumptionCheck      # sigma_1 <= 1/tau
    low_mass: AssumptionCheck        # nu([0, tau]) <= 1 - tau
    edge_regularity: AssumptionCheck # w_plus + 1/sigma_1 >= tau

    @property
    def all_ok(self) -> bool:
        return (self.aspect_ratio.ok and self.norm_bound.ok
                and self.low_mass.ok and self.edge_regularity.ok)


def check_assumptions(edge: EdgeData, tau: float) -> AssumptionReport:
    """Check the high-dimensional regularity assumptions on a solved noise
    bulk (nu, phi and w_plus from ``edge``); never raises on a violation, it
    reports the measured margin instead."""
    if not 0 < tau < 1:
        raise ConfigError(f"tau must lie in (0, 1), got {tau}")
    phi, nu = edge.phi, edge.nu
    aspect = AssumptionCheck(
        tau <= phi <= 1.0 / tau, min(phi - tau, 1.0 / tau - phi)
    )
    sigma1 = nu.top
    norm = AssumptionCheck(sigma1 <= 1.0 / tau, 1.0 / tau - sigma1)

    mass = nu.mass_below(tau)
    low_mass = AssumptionCheck(mass <= 1.0 - tau, (1.0 - tau) - mass)

    value = edge.w_plus + 1.0 / sigma1
    return AssumptionReport(tau, phi, aspect, norm, low_mass,
                            AssumptionCheck(value >= tau, value))
