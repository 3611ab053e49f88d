"""Numerical checks of the deterministic-equivalent resolvent machinery.

The spike theory rests on the linearized noise resolvent G(z) staying close
to a block-diagonal deterministic surrogate Pi(z), on deterministic
equivalents for two-resolvent products, and on an exact determinant
identity tying sample spikes to a 2K x 2K master matrix.  None of this is
provable numerically, but all of it is falsifiable: residuals must shrink
like 1/sqrt(N) and algebraic identities must hold to solver precision.
All spectral parameters are real and kept a hard margin above the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError
from .spectra import CovarianceModel, esd
from .spikes import SignalModel, SpikeTheory
from .stieltjes import f_eval, find_w_plus, solve_m

EDGE_MARGIN = 0.05
G_NORM_LIMIT = 1e3


@dataclass(frozen=True)
class ResolventBundle:
    """Resolvent of the linearized undeformed noise at one real z.

    G(z) is held implicitly through one eigendecomposition
    y y' = U diag(gram_eigs) U' of the M x M Gram matrix of y = Sigma^{1/2} X
    (``gram_vecs`` is U) and applied by ``g_apply`` in O(MN) per column;
    ``g`` materializes the dense (M+N) x (M+N) matrix on first access, for
    exact-identity checks only.  ``pi_m`` is the dense top-left
    deterministic block -(1/z)(I + m Sigma)^{-1}; the bottom-right block of
    the surrogate is m * I and is applied implicitly.
    """

    z: float
    m: float
    m_prime: float
    gram_eigs: np.ndarray
    gram_vecs: np.ndarray
    pi_m: np.ndarray
    y: np.ndarray
    sigma: CovarianceModel
    m_dim: int
    n_dim: int
    g_norm: float

    def g_apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply G(z) to a vector or to a block of columns.

        With a = vec[:M] and b = vec[M:], the block formulas
        G11 = (y y' - z)^{-1}, G12 = G11 y / sqrt(z) and
        G22 = -(I - y' G11 y) / z give
        G vec = [t; y' t / sqrt(z) - b / z] with t = G11 (a + y b / sqrt(z)).
        """
        sqrt_z = math.sqrt(self.z)
        a, b = vec[: self.m_dim], vec[self.m_dim:]
        coef = self.gram_vecs.T @ (a + (self.y @ b) / sqrt_z)
        top = self.gram_vecs @ (coef.T / (self.gram_eigs - self.z)).T
        return np.concatenate([top, (self.y.T @ top) / sqrt_z - b / self.z])

    @cached_property
    def g(self) -> np.ndarray:
        """Dense G(z), built column by column through ``g_apply``."""
        return self.g_apply(np.eye(self.m_dim + self.n_dim))

    def pi_apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.empty_like(vec)
        out[: self.m_dim] = self.pi_m @ vec[: self.m_dim]
        out[self.m_dim:] = self.m * vec[self.m_dim:]
        return out

    def pi2_apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply Pi_2 = 2 Pi' + Pi/z, the surrogate for G^2."""
        top = vec[: self.m_dim]
        sig_part = self.sigma.matvec(self.pi_m @ top)
        out = np.empty_like(vec)
        out[: self.m_dim] = (2.0 * self.z * self.m_prime * (self.pi_m @ sig_part)
                             - (self.pi_m @ top) / self.z)
        out[self.m_dim:] = (2.0 * self.m_prime + self.m / self.z) * vec[self.m_dim:]
        return out


def pi_m_matrix(sigma: CovarianceModel, z: float, m: float) -> np.ndarray:
    """Dense deterministic top-left block -(1/z) (I + m Sigma)^{-1}."""
    if sigma.recipe == "identity":
        return np.eye(sigma.dim) * (-1.0 / (z * (1.0 + m)))
    if sigma.recipe == "diagonal":
        return np.diag(-1.0 / (z * (1.0 + m * sigma.diag)))
    vals = -1.0 / (z * (1.0 + m * sigma.eigenvalues))
    return (sigma.basis * vals) @ sigma.basis.T


def build_resolvent(x: np.ndarray, sigma: CovarianceModel, z: float,
                    edge=None) -> ResolventBundle:
    """Factor G(z) = (H(z) - z)^{-1} for the undeformed noise.

    One symmetric eigendecomposition of the M x M Gram matrix y y' serves
    every application of G(z) (see ``ResolventBundle.g_apply``) and the
    norm ||G|| = 1 / min(|sqrt(z) s - z|, z) over the singular values s of
    y.  Requires z >= lambda_plus + 0.05 and a conditioning guard
    ||G|| <= 1e3 (exceptional draws put an eigenvalue close to z; callers
    skip and record those seeds).
    """
    m_dim, n_dim = x.shape
    if sigma.dim != m_dim:
        raise DomainError("covariance / data dimension mismatch")
    nu = esd(sigma)
    phi = m_dim / n_dim
    if edge is None:
        edge = find_w_plus(nu, phi)
    if z < edge.lambda_plus + EDGE_MARGIN:
        raise DomainError(
            f"z={z!r} is inside the margin band around the edge "
            f"{edge.lambda_plus!r}"
        )
    m_val = solve_m(z, nu, phi, edge)
    m_prime = 1.0 / f_eval(m_val, nu, phi)[1]

    y = sigma.sqrt_matmat(x)
    gram_eigs, gram_vecs = np.linalg.eigh(y @ y.T)
    svals = np.sqrt(np.clip(gram_eigs, 0.0, None))
    dist = min(float(np.abs(math.sqrt(z) * svals - z).min()), z)
    g_norm = 1.0 / dist if dist > 0 else np.inf
    if g_norm > G_NORM_LIMIT:
        raise NumericalError(
            f"resolvent too ill-conditioned at z={z!r}: ||G|| ~ {g_norm:.2e}"
        )

    return ResolventBundle(
        z=z, m=m_val, m_prime=m_prime, gram_eigs=gram_eigs, gram_vecs=gram_vecs,
        pi_m=pi_m_matrix(sigma, z, m_val), y=y,
        sigma=sigma, m_dim=m_dim, n_dim=n_dim, g_norm=g_norm,
    )


def isotropic_residual(bundle: ResolventBundle, u: np.ndarray,
                       v: np.ndarray) -> float:
    """|u' (G - Pi) v| for unit vectors in the embedded (M+N) space."""
    return float(abs(u @ bundle.g_apply(v) - u @ bundle.pi_apply(v)))


def g_squared_residual(bundle: ResolventBundle, u: np.ndarray,
                       v: np.ndarray) -> float:
    """|u' G^2 v - u' Pi_2 v| (G is symmetric, so G^2 needs two matvecs)."""
    gu, gv = bundle.g_apply(np.column_stack([u, v])).T
    return float(abs(gu @ gv - u @ bundle.pi2_apply(v)))


def divided_difference(bundle: ResolventBundle, other: ResolventBundle) -> float:
    if bundle.z == other.z:
        return bundle.m_prime
    return (bundle.m - other.m) / (bundle.z - other.z)


def two_resolvent_residuals(bundle: ResolventBundle, other: ResolventBundle,
                            u: np.ndarray, v: np.ndarray) -> dict:
    """Residuals of the six two-resolvent deterministic equivalents.

    ``u`` lives in R^M, ``v`` in R^N (unit norm).  The products are
    W_M = G(z) diag(Sigma, 0) G(z*) and W_N = G(z) diag(0, I) G(z*); their
    equivalents mix the two surrogates through the divided difference
    m[z, z*] rather than by naive substitution.
    """
    m_dim, n_dim = bundle.m_dim, bundle.n_dim
    if u.shape != (m_dim,) or v.shape != (n_dim,):
        raise DomainError("u must be length M, v length N")
    u_emb = np.concatenate([u, np.zeros(n_dim)])
    v_emb = np.concatenate([np.zeros(m_dim), v])

    probes = np.column_stack([u_emb, v_emb])
    gu, gv = bundle.g_apply(probes).T
    gsu, gsv = other.g_apply(probes).T

    def w_m(p, q):
        return float(p[:m_dim] @ bundle.sigma.matvec(q[:m_dim]))

    def w_n(p, q):
        return float(p[m_dim:] @ q[m_dim:])

    dd = divided_difference(bundle, other)
    ratio = dd / (bundle.m * other.m)
    pi_u = bundle.pi_m @ u
    pi_su = other.pi_m @ u
    quad = float(pi_u @ bundle.sigma.matvec(pi_su))
    vv = float(v @ v)
    zz = math.sqrt(bundle.z * other.z)

    return {
        "uu_M": abs(w_m(gu, gsu) - ratio * quad),
        "vv_M": abs(w_m(gv, gsv) - (ratio - 1.0) / zz * vv),
        "uv_M": abs(w_m(gu, gsv)),
        "uu_N": abs(w_n(gu, gsu) - zz * dd * quad),
        "vv_N": abs(w_n(gv, gsv) - dd * vv),
        "uv_N": abs(w_n(gu, gsv)),
    }


# -- master matrices ------------------------------------------------------


def _embed_factors(signal: SignalModel):
    m_dim, n_dim = signal.shape
    k = signal.rank
    frak_u = np.zeros((m_dim + n_dim, 2 * k))
    frak_u[:m_dim, :k] = signal.left
    frak_u[m_dim:, k:] = signal.right
    d_inv = np.zeros((2 * k, 2 * k))
    d_inv[:k, k:] = np.diag(1.0 / signal.svals)
    d_inv[k:, :k] = np.diag(1.0 / signal.svals)
    return frak_u, d_inv


def master_matrix_g(bundle: ResolventBundle, signal: SignalModel) -> np.ndarray:
    """A_G(z) = sqrt(z) U' G(z) U + D^{-1} (2K x 2K, symmetric)."""
    frak_u, d_inv = _embed_factors(signal)
    a = math.sqrt(bundle.z) * (frak_u.T @ bundle.g_apply(frak_u)) + d_inv
    return 0.5 * (a + a.T)


def master_matrix_pi(sigma: CovarianceModel, signal: SignalModel, z: float,
                     m: float) -> np.ndarray:
    """Deterministic surrogate A_Pi(z) = sqrt(z) U' Pi(z) U + D^{-1}."""
    k = signal.rank
    pi_m = pi_m_matrix(sigma, z, m)
    a = np.zeros((2 * k, 2 * k))
    a[:k, :k] = math.sqrt(z) * (signal.left.T @ (pi_m @ signal.left))
    a[k:, k:] = math.sqrt(z) * m * np.eye(k)
    a[:k, k:] = np.diag(1.0 / signal.svals)
    a[k:, :k] = np.diag(1.0 / signal.svals)
    return a


def master_quadratic_pi2(sigma: CovarianceModel, signal: SignalModel,
                         z: float, m: float, m_prime: float,
                         xi: np.ndarray) -> float:
    """xi' B_Pi(z) xi with B_Pi = z U' Pi_2(z) U."""
    k = signal.rank
    pi_m = pi_m_matrix(sigma, z, m)
    top = signal.left @ xi[:k]
    bot = signal.right @ xi[k:]
    pm_top = pi_m @ top
    val_m = (2.0 * z * m_prime * float(pm_top @ sigma.matvec(pi_m @ top))
             - float(top @ pm_top) / z)
    val_n = (2.0 * m_prime + m / z) * float(bot @ bot)
    return z * (val_m + val_n)


@dataclass(frozen=True)
class MasterMatrixReport:
    """Per-spike singularity diagnostics of the master matrices."""

    smallest_eig_at_sample: np.ndarray   # min |eig A_G(lambda_k)|
    null_residual: np.ndarray            # ||A_Pi(theta_k) xi_k|| / ||xi_k||
    det_contrast: np.ndarray             # |det A_Pi(theta_k +- 0.1)| / |det A_Pi(theta_k)|
    quad_identity_error: np.ndarray      # |xi' B_Pi xi - 2 theta/(sigma~ theta')|
    sample_spikes: np.ndarray


def sample_spikes(x: np.ndarray, sigma: CovarianceModel, signal: SignalModel,
                  k: int) -> np.ndarray:
    """Top-k sample eigenvalues: squared singular values of S + Sigma^{1/2} X."""
    ytilde = signal.dense() + sigma.sqrt_matmat(x)
    return np.linalg.svd(ytilde, compute_uv=False)[:k] ** 2


def master_matrix_suite(x: np.ndarray, sigma: CovarianceModel,
                        signal: SignalModel, theory: SpikeTheory) -> MasterMatrixReport:
    """Exercise the determinant identity and the null-vector structure.

    A_G evaluated at a sample spike is exactly singular (up to eigensolver
    error); A_Pi at theta_k annihilates xi_k identically; and |det A_Pi| has
    a simple zero at theta_k, so shifting by 0.1 lifts it by orders of
    magnitude.
    """
    if theory.K0 < 1:
        raise DomainError("master matrix suite requires K0 >= 1")
    k0 = theory.K0
    lam = sample_spikes(x, sigma, signal, k0)

    smallest = np.empty(k0)
    nullres = np.empty(k0)
    contrast = np.empty(k0)
    quad_err = np.empty(k0)
    for k in range(k0):
        bundle = build_resolvent(x, sigma, float(lam[k]), theory.edge)
        a_g = master_matrix_g(bundle, signal)
        smallest[k] = float(np.abs(np.linalg.eigvalsh(a_g)).min())

        theta = float(theory.theta[k])
        m_theta = -1.0 / float(theory.sigma_tilde[k])
        a_pi = master_matrix_pi(sigma, signal, theta, m_theta)
        xi = theory.xi[k]
        nullres[k] = float(np.linalg.norm(a_pi @ xi) / np.linalg.norm(xi))

        nu = esd(sigma)
        det_at = abs(np.linalg.det(a_pi))
        dets_off = []
        for shift in (-0.1, 0.1):
            z_off = theta + shift
            m_off = solve_m(z_off, nu, theory.phi, theory.edge)
            dets_off.append(abs(np.linalg.det(
                master_matrix_pi(sigma, signal, z_off, m_off)
            )))
        contrast[k] = min(dets_off) / max(det_at, 1e-300)

        m_prime = 1.0 / f_eval(m_theta, nu, theory.phi)[1]
        quad = master_quadratic_pi2(sigma, signal, theta, m_theta, m_prime, xi)
        target = 2.0 * theta / (float(theory.sigma_tilde[k]) * float(theory.theta_prime[k]))
        quad_err[k] = abs(quad - target)

    return MasterMatrixReport(smallest, nullres, contrast, quad_err, lam)


def green_rep_residual(x: np.ndarray, sigma: CovarianceModel,
                       signal: SignalModel, theory: SpikeTheory,
                       lam: np.ndarray | None = None) -> np.ndarray:
    """Per-spike residual of the resolvent representation of the fluctuation.

    Compares sqrt(N) (lambda_k - theta_k) against
    -sqrt(N) sigma~_k theta'_k [u_k; v_k]' (G - Pi)(theta_k) [u_k; v_k]
    with lambda_k extracted from the same noise draw.  ``lam``, when given,
    is ``sample_spikes(x, sigma, signal, theory.K0)`` computed by the caller.
    """
    if theory.K0 < 1:
        raise DomainError("green representation requires K0 >= 1")
    k0 = theory.K0
    if lam is None:
        lam = sample_spikes(x, sigma, signal, k0)
    sqrt_n = math.sqrt(x.shape[1])

    out = np.empty(k0)
    for k in range(k0):
        bundle = build_resolvent(x, sigma, float(theory.theta[k]), theory.edge)
        q = np.concatenate([theory.u_vectors[k], theory.s_top_psi[k]])
        upsilon_quad = float(q @ bundle.g_apply(q) - q @ bundle.pi_apply(q))
        predicted = (-sqrt_n * float(theory.sigma_tilde[k])
                     * float(theory.theta_prime[k]) * upsilon_quad)
        out[k] = abs(sqrt_n * (lam[k] - float(theory.theta[k])) - predicted)
    return out
