"""Numerical checks of the deterministic-equivalent resolvent machinery.

The spike theory rests on the linearized noise resolvent G(z) staying close
to a block-diagonal deterministic surrogate Pi(z), on deterministic
equivalents for two-resolvent products, and on an exact determinant
identity tying sample spikes to a 2K x 2K master matrix.  None of this is
provable numerically, but all of it is falsifiable: residuals must shrink
like 1/sqrt(N) and algebraic identities must hold to solver precision.
All spectral parameters are real and kept a hard margin above the edge.
Each noise draw is factored once (``factor_noise``); ``build_resolvent``
pairs that factorization with Pi(z) at every z the draw needs, and
``sample_spikes`` reads the outliers of S + y from the same factorization
as a signed rank-2K secular problem, with no SVD of the M x N sample.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError
from .spectra import CovarianceModel
from .spikes import SignalModel, SpikeTheory, secular_values
from .stieltjes import EdgeData, f_eval, solve_m

EDGE_MARGIN = 0.05
G_NORM_LIMIT = 1e3


@dataclass(frozen=True)
class NoiseDraw:
    """One noise draw y = Sigma^{1/2} X, factored once for every z it serves.

    ``gram_eigs`` and ``gram_vecs`` (U) are the eigendecomposition
    y y' = U diag(gram_eigs) U' of the M x M Gram matrix.
    """

    sigma: CovarianceModel
    y: np.ndarray
    gram_eigs: np.ndarray
    gram_vecs: np.ndarray


def factor_noise(x: np.ndarray, sigma: CovarianceModel) -> NoiseDraw:
    """Form y = Sigma^{1/2} X and take the one ``eigh`` of y y' per draw."""
    if sigma.dim != x.shape[0]:
        raise DomainError("covariance / data dimension mismatch")
    y = sigma.sqrt_matmat(x)
    gram_eigs, gram_vecs = np.linalg.eigh(y @ y.T)
    return NoiseDraw(sigma, y, gram_eigs, gram_vecs)


@dataclass(frozen=True)
class Pi:
    """Deterministic equivalent Pi(z) of the linearized resolvent at real z.

    Block diagonal: the top-left block -(1/z)(I + m Sigma)^{-1} is applied
    through Sigma's spectral form, the bottom-right block m I directly.
    ``m_prime`` is m'(z), which enters Pi_2 = 2 Pi' + Pi/z.
    """

    z: float
    m: float
    m_prime: float
    sigma: CovarianceModel

    def _top(self, s):
        return -1.0 / (self.z * (1.0 + self.m * s))

    @cached_property
    def pi_m(self) -> np.ndarray:
        """Dense top-left block, for exact-identity checks only."""
        return self.sigma.function(self._top)

    def pi_apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply Pi(z) to a vector or to a block of columns."""
        top, bot = vec[: self.sigma.dim], vec[self.sigma.dim:]
        return np.concatenate([self.sigma.apply(self._top, top), self.m * bot])

    def pi2_apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply Pi_2 = 2 Pi' + Pi/z, the surrogate for G^2."""
        sigma, z, m_prime = self.sigma, self.z, self.m_prime
        top, bot = vec[: sigma.dim], vec[sigma.dim:]
        pi_top = sigma.apply(self._top, top)
        return np.concatenate([
            2.0 * z * m_prime * sigma.apply(self._top, sigma.matvec(pi_top)) - pi_top / z,
            (2.0 * m_prime + self.m / z) * bot])


def solve_pi(sigma: CovarianceModel, z: float, edge: EdgeData,
             m: float | None = None) -> Pi:
    """Pi(z) with m = m(z) from the fixed-point solver on ``edge``'s bulk, or
    the given ``m`` when the caller knows it in closed form; m' = 1 / f'(m)."""
    if m is None:
        m = solve_m(z, edge)
    m_prime = 1.0 / f_eval(m, edge.nu, edge.phi)[1]
    return Pi(z, m, m_prime, sigma)


@dataclass(frozen=True)
class ResolventBundle:
    """Resolvent G(z) of one factored noise draw at one real z, with Pi(z).

    G(z) is applied by ``g_apply`` in O(MN) per column from the draw's Gram
    eigendecomposition; ``g`` materializes the dense (M+N) x (M+N) matrix on
    first access, for exact-identity checks only.
    """

    draw: NoiseDraw
    pi: Pi
    g_norm: float

    def g_apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply G(z) to a vector or to a block of columns.

        With a = vec[:M] and b = vec[M:], the block formulas
        G11 = (y y' - z)^{-1}, G12 = G11 y / sqrt(z) and
        G22 = -(I - y' G11 y) / z give
        G vec = [t; y' t / sqrt(z) - b / z] with t = G11 (a + y b / sqrt(z)).
        """
        d, z = self.draw, self.pi.z
        sqrt_z = math.sqrt(z)
        a, b = vec[: len(d.y)], vec[len(d.y):]
        coef = d.gram_vecs.T @ (a + (d.y @ b) / sqrt_z)
        top = d.gram_vecs @ (coef.T / (d.gram_eigs - z)).T
        return np.concatenate([top, (d.y.T @ top) / sqrt_z - b / z])

    @cached_property
    def g(self) -> np.ndarray:
        """Dense G(z), built column by column through ``g_apply``."""
        return self.g_apply(np.eye(sum(self.draw.y.shape)))


def build_resolvent(draw: NoiseDraw, z: float, edge: EdgeData) -> ResolventBundle:
    """G(z) = (H(z) - z)^{-1} of a factored draw, with its Pi(z).

    No factorization happens here: the norm ||G|| = 1 / min(|sqrt(z) s - z|, z)
    over the singular values s of y comes from the draw's Gram eigenvalues.
    Requires the draw's aspect ratio M/N to be ``edge.phi``, z >= lambda_plus
    + 0.05 and a conditioning guard ||G|| <= 1e3 (exceptional draws put an
    eigenvalue close to z; callers skip and record those seeds).
    """
    m_dim, n_dim = draw.y.shape
    if m_dim / n_dim != edge.phi:
        raise DomainError(
            f"draw is {m_dim}x{n_dim} (M/N = {m_dim / n_dim!r}) but the edge "
            f"was solved at phi={edge.phi!r}"
        )
    if z < edge.lambda_plus + EDGE_MARGIN:
        raise DomainError(
            f"z={z!r} is inside the margin band around the edge "
            f"{edge.lambda_plus!r}"
        )
    svals = np.sqrt(np.clip(draw.gram_eigs, 0.0, None))
    dist = min(float(np.abs(math.sqrt(z) * svals - z).min()), z)
    g_norm = 1.0 / dist if dist > 0 else np.inf
    if g_norm > G_NORM_LIMIT:
        raise NumericalError(
            f"resolvent too ill-conditioned at z={z!r}: ||G|| ~ {g_norm:.2e}"
        )
    pi = solve_pi(draw.sigma, z, edge)
    return ResolventBundle(draw, pi, g_norm)


def isotropic_residual(bundle: ResolventBundle, u: np.ndarray,
                       v: np.ndarray) -> float:
    """|u' (G - Pi) v| for unit vectors in the embedded (M+N) space."""
    return float(abs(u @ bundle.g_apply(v) - u @ bundle.pi.pi_apply(v)))


def g_squared_residual(bundle: ResolventBundle, u: np.ndarray,
                       v: np.ndarray) -> float:
    """|u' G^2 v - u' Pi_2 v| (G is symmetric, so G^2 needs two matvecs)."""
    gu, gv = bundle.g_apply(np.column_stack([u, v])).T
    return float(abs(gu @ gv - u @ bundle.pi.pi2_apply(v)))


def divided_difference(p: Pi, q: Pi) -> float:
    """m[z, z*] = (m(z) - m(z*)) / (z - z*), equal to m'(z) on the diagonal,
    from the m and m' that ``solve_pi`` solved for each Pi."""
    if p.z == q.z:
        return p.m_prime
    return (p.m - q.m) / (p.z - q.z)


def two_resolvent_residuals(bundle: ResolventBundle, other: ResolventBundle,
                            u: np.ndarray, v: np.ndarray) -> dict:
    """Residuals of the six two-resolvent deterministic equivalents.

    ``u`` lives in R^M, ``v`` in R^N (unit norm).  The products are
    W_M = G(z) diag(Sigma, 0) G(z*) and W_N = G(z) diag(0, I) G(z*); their
    equivalents mix the two surrogates through the divided difference
    m[z, z*] rather than by naive substitution.
    """
    m_dim, n_dim = bundle.draw.y.shape
    if u.shape != (m_dim,) or v.shape != (n_dim,):
        raise DomainError("u must be length M, v length N")
    sigma = bundle.draw.sigma
    u_emb = np.concatenate([u, np.zeros(n_dim)])
    v_emb = np.concatenate([np.zeros(m_dim), v])

    probes = np.column_stack([u_emb, v_emb])
    gu, gv = bundle.g_apply(probes).T
    gsu, gsv = other.g_apply(probes).T

    def w_m(p, q):
        return float(p[:m_dim] @ sigma.matvec(q[:m_dim]))

    def w_n(p, q):
        return float(p[m_dim:] @ q[m_dim:])

    dd = divided_difference(bundle.pi, other.pi)
    ratio = dd / (bundle.pi.m * other.pi.m)
    pi_u = bundle.pi.pi_apply(u_emb)[:m_dim]
    pi_su = other.pi.pi_apply(u_emb)[:m_dim]
    quad = float(pi_u @ sigma.matvec(pi_su))
    vv = float(v @ v)
    zz = math.sqrt(bundle.pi.z * other.pi.z)

    return {
        "uu_M": abs(w_m(gu, gsu) - ratio * quad),
        "vv_M": abs(w_m(gv, gsv) - (ratio - 1.0) / zz * vv),
        "uv_M": abs(w_m(gu, gsv)),
        "uu_N": abs(w_n(gu, gsu) - zz * dd * quad),
        "vv_N": abs(w_n(gv, gsv) - dd * vv),
        "uv_N": abs(w_n(gu, gsv)),
    }


# -- master matrices ------------------------------------------------------


def _embed(signal: SignalModel) -> np.ndarray:
    """U = diag(left, right), the signal factors in the (M+N) embedding."""
    (m_dim, n_dim), k = signal.shape, signal.rank
    return np.block([[signal.left, np.zeros((m_dim, k))],
                     [np.zeros((n_dim, k)), signal.right]])


def _master_matrix(z: float, apply, signal: SignalModel) -> np.ndarray:
    """sqrt(z) U' R U + D^{-1} (2K x 2K, symmetrized) for R = ``apply`` and
    D^{-1} = [[0, S^{-1}], [S^{-1}, 0]]."""
    frak_u = _embed(signal)
    d_inv = np.kron([[0.0, 1.0], [1.0, 0.0]], np.diag(1.0 / signal.svals))
    a = math.sqrt(z) * (frak_u.T @ apply(frak_u)) + d_inv
    return 0.5 * (a + a.T)


def master_matrix_g(bundle: ResolventBundle, signal: SignalModel) -> np.ndarray:
    """A_G(z) = sqrt(z) U' G(z) U + D^{-1} (2K x 2K, symmetric)."""
    return _master_matrix(bundle.pi.z, bundle.g_apply, signal)


def master_matrix_pi(pi: Pi, signal: SignalModel) -> np.ndarray:
    """Deterministic surrogate A_Pi(z) = sqrt(z) U' Pi(z) U + D^{-1}."""
    return _master_matrix(pi.z, pi.pi_apply, signal)


def master_quadratic_pi2(pi: Pi, signal: SignalModel, xi: np.ndarray) -> float:
    """xi' B_Pi(z) xi with B_Pi = z U' Pi_2(z) U, as z q' Pi_2 q for q = U xi."""
    q = _embed(signal) @ xi
    return pi.z * float(q @ pi.pi2_apply(q))


@dataclass(frozen=True)
class MasterMatrixReport:
    """Per-spike singularity diagnostics of the master matrices."""

    smallest_eig_at_sample: np.ndarray   # min |eig A_G(lambda_k)|
    null_residual: np.ndarray            # ||A_Pi(theta_k) xi_k|| / ||xi_k||
    det_contrast: np.ndarray             # |det A_Pi(theta_k +- 0.1)| / |det A_Pi(theta_k)|
    quad_identity_error: np.ndarray      # |xi' B_Pi xi - 2 theta/(sigma~ theta')|
    sample_spikes: np.ndarray


def sample_spikes(draw: NoiseDraw, signal: SignalModel, k: int) -> np.ndarray:
    """Top-k eigenvalues of (S + y)(S + y)' from the draw's own factorization.

    With S = L D R', (y + S)(y + S)' = y y' + Z+ Z+' - Z- Z-' for
    Z+ = y R + L D and Z- = y R: a signed rank-2K update of y y' = U Lambda U',
    solved in U's coordinates by ``secular_values`` at O(MK) per count
    after one O(M^2 K) projection.  The count is exact below lambda_1(y y')
    too, so a spike that fails to detach needs no other path.  A root x is
    then polished by the Rayleigh quotient of its secular eigenvector
    (x - Lambda)^{-1} Z u, (A(x) - J) u ~ 0, which squares its error.
    """
    y_right = draw.y @ signal.right
    z = draw.gram_vecs.T @ np.hstack([y_right + signal.left * signal.svals, y_right])
    lam, signs = draw.gram_eigs, np.repeat([1.0, -1.0], signal.rank)
    vals = secular_values(lam, z[:, :signal.rank], z[:, signal.rank:], k)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, x in enumerate(vals):
            w = z / (x - lam)[:, None]
            # one inverse-iteration step for u; a singular A(x) - J means x is exact
            with contextlib.suppress(np.linalg.LinAlgError):
                v = w @ np.linalg.solve(z.T @ w - np.diag(signs), np.ones(len(signs)))
                rayleigh = (v @ (lam * v) + (z.T @ v) ** 2 @ signs) / (v @ v)
                vals[j] = rayleigh if np.isfinite(rayleigh) else x
    return vals


def master_matrix_suite(draw: NoiseDraw, signal: SignalModel,
                        theory: SpikeTheory) -> MasterMatrixReport:
    """Exercise the determinant identity and the null-vector structure.

    A_G evaluated at a sample spike is exactly singular (up to eigensolver
    error); A_Pi at theta_k annihilates xi_k identically; and |det A_Pi| has
    a simple zero at theta_k, so shifting by 0.1 lifts it by orders of
    magnitude.
    """
    if theory.K0 < 1:
        raise DomainError("master matrix suite requires K0 >= 1")
    k0 = theory.K0
    lam = sample_spikes(draw, signal, k0)
    sigma, edge = draw.sigma, theory.edge

    smallest, nullres, contrast, quad_err = np.empty((4, k0))
    for k in range(k0):
        a_g = master_matrix_g(build_resolvent(draw, float(lam[k]), edge), signal)
        smallest[k] = float(np.abs(np.linalg.eigvalsh(a_g)).min())

        theta = float(theory.theta[k])
        pi = solve_pi(sigma, theta, edge, m=-1.0 / float(theory.sigma_tilde[k]))
        a_pi = master_matrix_pi(pi, signal)
        xi = theory.xi[k]
        nullres[k] = float(np.linalg.norm(a_pi @ xi) / np.linalg.norm(xi))

        det_at = abs(np.linalg.det(a_pi))
        dets_off = [abs(np.linalg.det(master_matrix_pi(
            solve_pi(sigma, theta + shift, edge), signal)))
            for shift in (-0.1, 0.1)]
        contrast[k] = min(dets_off) / max(det_at, 1e-300)

        target = 2.0 * theta / (float(theory.sigma_tilde[k]) * float(theory.theta_prime[k]))
        quad_err[k] = abs(master_quadratic_pi2(pi, signal, xi) - target)

    return MasterMatrixReport(smallest, nullres, contrast, quad_err, lam)


def green_rep_residual(draw: NoiseDraw, signal: SignalModel, theory: SpikeTheory,
                       lam: np.ndarray | None = None) -> np.ndarray:
    """Per-spike residual of the resolvent representation of the fluctuation.

    Compares sqrt(N) (lambda_k - theta_k) against
    -sqrt(N) sigma~_k theta'_k [u_k; v_k]' (G - Pi)(theta_k) [u_k; v_k]
    with lambda_k extracted from the same noise draw.  ``lam``, when given,
    is ``sample_spikes(draw, signal, theory.K0)`` computed by the caller.
    """
    if theory.K0 < 1:
        raise DomainError("green representation requires K0 >= 1")
    k0 = theory.K0
    if lam is None:
        lam = sample_spikes(draw, signal, k0)
    sqrt_n = math.sqrt(draw.y.shape[1])

    out = np.empty(k0)
    for k in range(k0):
        bundle = build_resolvent(draw, float(theory.theta[k]), theory.edge)
        q = np.concatenate([theory.u_vectors[k], theory.s_top_psi[k]])
        upsilon_quad = float(q @ bundle.g_apply(q) - q @ bundle.pi.pi_apply(q))
        predicted = (-sqrt_n * float(theory.sigma_tilde[k])
                     * float(theory.theta_prime[k]) * upsilon_quad)
        out[k] = abs(sqrt_n * (lam[k] - float(theory.theta[k])) - predicted)
    return out
