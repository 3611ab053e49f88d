"""Deformed population spectra and the deterministic spike theory.

Adding a rank-K signal S to the noise shifts the population covariance to
Sigma + S S^T.  Its top eigenvalues that clear the detachment threshold
-1/w_plus produce sample spikes; this module classifies them and computes
every deterministic quantity of their fluctuation theory: the almost-sure
limits theta_k, the bias term L_k, the Gaussian-part covariance matrix V,
the Gaussian/nonuniversal cross covariance W, and the spike vectors feeding
the resolvent-based checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError, NumericalError
from .spectra import CovarianceModel, esd
from .stieltjes import EdgeData, find_w_plus, theta_terms

MAX_RANK = 64
# the largest spike whose Gaussian variance (about 2 sigma_tilde^2) is finite
_SIGMA_TILDE_MAX = math.sqrt(np.finfo(float).max) / 2.0


@dataclass(frozen=True)
class SignalModel:
    """Low-rank deterministic signal S = left @ diag(svals) @ right.T.

    ``left`` (M x K) and ``right`` (N x K) have orthonormal columns and
    ``svals`` is sorted descending and strictly positive; K may be 0 for the
    zero signal, which downstream deformation rejects.
    """

    left: np.ndarray
    svals: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.rank > MAX_RANK:
            raise DomainError(f"signal rank {self.rank} exceeds {MAX_RANK}")
        for name, fac in (("left", self.left), ("right", self.right)):
            gram_dev = np.abs(fac.T @ fac - np.eye(self.rank)).max() if self.rank else 0.0
            if gram_dev > 1e-10:
                raise NumericalError(
                    f"{name} factor columns not orthonormal (deviation {gram_dev:.2e})"
                )
        if self.rank and (np.diff(self.svals) > 0).any():
            raise DomainError("singular values must be sorted descending")
        if self.rank and self.svals[-1] <= 0:
            raise DomainError("singular values must be strictly positive")

    @property
    def rank(self) -> int:
        return self.svals.shape[0]

    @property
    def shape(self):
        return self.left.shape[0], self.right.shape[0]

    def dense(self) -> np.ndarray:
        return (self.left * self.svals) @ self.right.T

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """S^T x for x of length M."""
        return self.right @ (self.svals * (self.left.T @ x))

    def gram_m(self) -> np.ndarray:
        """S S^T as a dense M x M matrix."""
        return (self.left * self.svals**2) @ self.left.T

    @classmethod
    def from_factors(cls, left, svals, right):
        left = np.asarray(left, dtype=float)
        svals = np.asarray(svals, dtype=float)
        right = np.asarray(right, dtype=float)
        order = np.argsort(-svals, kind="stable")
        return cls(left[:, order], svals[order], right[:, order])

    @classmethod
    def from_outer(cls, a, b):
        """Compact SVD of A @ B.T without densifying (A: M x K, B: N x K),
        dropping singular values below 1e-10 * s_1 (a mixture signal can
        lose rank this way)."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        qa, ra = np.linalg.qr(a)
        qb, rb = np.linalg.qr(b)
        u0, d, v0t = np.linalg.svd(ra @ rb.T, full_matrices=False)
        keep = d > (1e-10 * d[0] if d.size and d[0] > 0 else 0.0)
        return cls(qa @ u0[:, keep], d[keep], qb @ v0t[keep].T)

    @classmethod
    def localized(cls, strength, m, n, row=0, col=0):
        """Rank-one signal strength * e_row e_col^T (the fully localized case)."""
        u = np.zeros((m, 1)); u[row, 0] = 1.0
        v = np.zeros((n, 1)); v[col, 0] = 1.0
        return cls(u, np.array([float(strength)]), v)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-|entry| component positive (ties: lowest
    index, which argmax already delivers)."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, k]))
        if out[lead, k] < 0:
            out[:, k] = -out[:, k]
    return out


@dataclass(frozen=True)
class DeformedPopulation:
    """Top eigendata of Sigma + S S^T with supercritical classification.

    ``sigma_tilde`` holds the K+1 largest eigenvalues (the extra one feeds
    gap checks); ``K0`` counts spikes clearing threshold + 2*tau, and ``psi``
    holds their K0 sign-fixed unit eigenvectors.
    """

    sigma_tilde: np.ndarray
    psi: np.ndarray
    threshold: float
    K0: int
    edge: EdgeData
    warnings: tuple = ()


# The top eigenvalues of a signed low-rank update Lambda + Z J Z' of a
# diagonal Lambda, with Z = [Z+, Z-] and J = diag(I, -I), without an M x M
# factorization.  For x not in Lambda, Haynsworth's inertia additivity on
# [[Lambda - x, Z], [Z', -J]] gives the count
#     #{eig(Lambda + Z J Z') > x} = #{lambda_i > x} + #{eig(A(x) - J) > 0} - K-,
#     A(x) = Z' (x - Lambda)^{-1} Z,
# with K- the number of columns of Z-.  It is exact also for repeated
# lambda_i and below lambda_1, so bisection on it finds every value.  With
# no Z- (Sigma + S S') the j-th value above lambda_1 is where the j-th
# eigenvalue of A(x) is 1, with eigenvector (x - Lambda)^{-1} Z c for the
# matching eigenvector c of A(x) (Golub 1973, "Some modified matrix
# eigenvalue problems", SIAM Rev. 15).

_EPS = np.finfo(float).eps
_CLUSTER_RTOL = 1e-11   # roots this close share one eigenspace of A(x)


def _count_above(lam, z, signs, x):
    """#{eig(Lambda + Z diag(signs) Z') > x}; a pole x = lambda_i is read
    just above it."""
    while np.any(lam == x):
        x = np.nextafter(x, np.inf)
    shifted = z.T @ (z / (x - lam)[:, None])
    shifted.flat[::len(signs) + 1] -= signs    # A(x) - J
    mu = np.linalg.eigvalsh(shifted)
    return (int(np.count_nonzero(lam > x)) + int(np.count_nonzero(mu > 0.0))
            - int(np.count_nonzero(signs < 0)))


def _bisect_count(lam, z, signs, j, lo, hi, tol, gap):
    """The (j+1)-th largest eigenvalue, known to lie in [lo, hi].

    A(x) blows up at a pole and then loses its eigenvalues near J to
    rounding, so a midpoint within ``gap`` of a pole steps ``gap`` off it
    while the bracket allows.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        pole = lam[np.argmin(np.abs(lam - mid))]
        if abs(mid - pole) < gap:
            mid = next((x for x in (pole - gap, pole + gap) if lo < x < hi), mid)
        if _count_above(lam, z, signs, mid) > j:
            lo = mid
        else:
            hi = mid
    return hi


def secular_values(lam, z_plus, z_minus, n):
    """The n largest eigenvalues of Lambda + Z+ Z+' - Z- Z-', largest first.

    ``lam`` holds the diagonal of Lambda in any order; Z+ and Z- have
    len(lam) rows and K+ and K- columns (either may be empty).
    """
    k_plus, k_minus = z_plus.shape[1], z_minus.shape[1]
    z = np.hstack([z_plus, z_minus])
    signs = np.concatenate([np.ones(k_plus), -np.ones(k_minus)])
    base = np.sort(lam)[::-1]
    with np.errstate(over="ignore"):   # an inf scale is refused just below
        reach = np.linalg.svd(z_plus, compute_uv=False) ** 2
    drop = float(np.sum(z_minus**2))   # ||Z-||_F^2 >= ||Z- Z-'||
    scale = abs(base[0]) + reach.max(initial=0.0)
    if not scale + drop < np.finfo(float).max / 4:   # keeps lo + hi finite below
        raise NumericalError(f"eigenvalue scale {scale + drop:.6g} is too large "
                             "to bisect in float64")
    tol = 4.0 * _EPS * scale
    gap = math.sqrt(_EPS) * scale   # how close to a pole A(x) is still read
    vals = np.empty(n)
    for j in range(n):
        # Weyl: lambda_{j+K-}(Lambda) <= value_j <= lambda_1(Lambda) + s_j(Z+)^2,
        # value_j <= lambda_{j-K+}(Lambda) once j >= K+, and value_j >=
        # lambda_min(Lambda) - ||Z-||^2 always
        lo = (base[j + k_minus] if j + k_minus < len(base)
              else base[-1] - drop)
        hi = base[0] + reach[j] if j < k_plus else base[j - k_plus]
        if j:
            hi = min(hi, vals[j - 1])
        vals[j] = _bisect_count(lam, z, signs, j, lo, hi, tol, gap)
    return vals


def _secular_vectors(sigma, z, roots):
    """Orthonormal eigenvectors for roots above lambda_1:
    psi = V (x - Lambda)^{-1} Z c, c in the eigenvalue-1 eigenspace of A(x).

    Equal roots share one x and that whole eigenspace; one QR of all columns
    then makes the block orthonormal (it moves well-separated vectors only at
    rounding level).
    """
    lam = sigma.values
    coords = np.empty((len(lam), len(roots)))
    j = 0
    while j < len(roots):
        x = roots[j]
        end = j + 1
        while end < len(roots) and x - roots[end] <= _CLUSTER_RTOL * x:
            end += 1
        w = z / (x - lam)[:, None]
        c = np.linalg.eigh(z.T @ w)[1][:, ::-1]   # largest eigenvalue first
        coords[:, j:end] = w @ c[:, j:end]
        j = end
    return np.linalg.qr(sigma.from_coordinates(coords))[0]


def deform(sigma: CovarianceModel, signal: SignalModel, tau: float) -> DeformedPopulation:
    """Build the deformed population and classify supercritical spikes.

    Spikes inside the marginal band (threshold, threshold + 2*tau) and gaps
    below tau are reported as warnings, not errors; a configuration with no
    supercritical spike returns K0 = 0 with an advisory.
    """
    m_dim, n_dim = signal.shape
    if m_dim != sigma.dim:
        raise DomainError(
            f"dimension mismatch: covariance is {sigma.dim}, signal rows {m_dim}"
        )
    if signal.rank < 1:
        raise DomainError("signal has rank 0; a nonzero deformation is required")

    k = signal.rank
    z = sigma.coordinates(signal.left * signal.svals)
    n_eigs = min(k + 1, m_dim)
    vals = secular_values(sigma.values, z, z[:, :0], n_eigs)

    edge = find_w_plus(esd(sigma), m_dim / n_dim)
    k0, notes = _classify(vals, k, edge.threshold, tau)
    # supercritical roots clear threshold > lambda_1(Sigma) by 2 tau
    psi = _fix_signs(_secular_vectors(sigma, z, vals[:k0]))
    return DeformedPopulation(
        sigma_tilde=vals, psi=psi, threshold=edge.threshold, K0=k0, edge=edge,
        warnings=notes,
    )


def _classify(vals, k, threshold, tau):
    """K0 and the advisory notes on the top K+1 eigenvalues."""
    k0 = int(np.sum(vals[:k] >= threshold + 2 * tau))
    notes = []
    marginal = np.sum((vals[:k] > threshold) & (vals[:k] < threshold + 2 * tau))
    if marginal:
        notes.append(f"{int(marginal)} spike(s) in the marginal band "
                     f"({threshold:.6g}, {threshold + 2 * tau:.6g}); excluded from K0")
    gaps = vals[:-1] - vals[1:] if len(vals) > 1 else np.array([])
    small = np.nonzero(gaps[:max(k0, 1)] < tau)[0]
    if k0 and small.size:
        notes.append(f"spike gap(s) below tau={tau} at index {small.tolist()}")
    if k0 == 0:
        notes.append("all spikes subcritical: no detached sample eigenvalue expected")
    return k0, tuple(notes)


def mixed_moment(vectors, powers) -> float:
    """Mixed moment sum_t prod_j vectors[j][t] ** powers[j].

    Accumulated with compensated summation so the K x K covariance
    assemblies stay reproducible to the last bit.
    """
    arrays = [np.asarray(v, dtype=float) for v in vectors]
    length = arrays[0].shape[0]
    if any(a.shape != (length,) for a in arrays):
        raise DomainError("mixed_moment requires equal-length vectors")
    if len(powers) != len(arrays) or any(p < 1 for p in powers):
        raise DomainError("one positive integer power per vector is required")
    term = np.ones(length)
    for a, p in zip(arrays, powers):
        term = term * a**p
    return math.fsum(term)


@dataclass(frozen=True)
class SpikeTheory:
    """Deterministic fluctuation quantities for the K0 supercritical spikes.

    Per spike k: almost-sure limit ``theta`` with derivative ``theta_prime``,
    bias ``spike_bias`` (zero for symmetric noise), the vectors
    Sigma^{1/2} psi_k, S^T psi_k, the resolvent probe u_k and the 2K null
    vector ``xi`` of the deterministic master matrix.  Per pair: the
    Gaussian-part covariance ``gauss_cov`` (= base + kurtosis part) and the
    cross covariance ``cross_cov``.
    """

    theta: np.ndarray
    theta_prime: np.ndarray
    spike_bias: np.ndarray
    gauss_cov: np.ndarray
    gauss_cov_base: np.ndarray
    gauss_cov_kurtosis: np.ndarray
    cross_cov: np.ndarray
    sqrt_sigma_psi: np.ndarray
    s_top_psi: np.ndarray
    u_vectors: np.ndarray
    xi: np.ndarray
    sigma_tilde: np.ndarray
    N: int
    edge: EdgeData

    @property
    def K0(self) -> int:
        return self.theta.shape[0]


def asymptotic_quantities(sigma: CovarianceModel, signal: SignalModel,
                          pop: DeformedPopulation, law, N: int) -> SpikeTheory:
    """Assemble every deterministic quantity of the spike fluctuation theory.

    ``law`` only contributes its third/fourth cumulants here; the law's full
    distribution enters later through the nonuniversal characteristic
    function.
    """
    if pop.K0 < 1:
        raise DomainError("no supercritical spike: K0 = 0")
    if pop.sigma_tilde[0] > _SIGMA_TILDE_MAX:
        raise NumericalError(f"spike {pop.sigma_tilde[0]:.6g} is too strong: its "
                             "Gaussian variance 2 sigma_tilde^2 overflows float64")
    k0 = pop.K0
    kappa3, kappa4 = law.kappa3, law.kappa4

    theta = np.empty(k0)
    deficit = np.empty(k0)                    # 1 - theta', summed directly
    pi_tilde = np.empty((k0, sigma.dim))
    a_vecs = np.empty((k0, sigma.dim))        # Sigma^{1/2} psi_k
    b_vecs = np.empty((k0, signal.shape[1]))  # S^T psi_k
    u_vecs = np.empty((k0, sigma.dim))
    xi = np.empty((k0, 2 * signal.rank))
    sig_psi = np.empty((k0, sigma.dim))

    d = signal.svals
    for k in range(k0):
        st = float(pop.sigma_tilde[k])
        psi_k = pop.psi[:, k]
        # theta_terms rejects st within 1e-10 relative of an eigenvalue of Sigma
        theta[k], deficit[k] = theta_terms(st, pop.edge)
        pi_tilde[k] = sigma.diagonal(lambda s: s / (st - s))   # Sigma (st - Sigma)^{-1}
        a_vecs[k] = sigma.sqrt_matmat(psi_k)
        b_vecs[k] = signal.apply_t(psi_k)
        sig_psi[k] = sigma.matvec(psi_k)
        # u_k = sqrt(theta) [I + m(theta) Sigma] psi with m(theta) = -1/sigma_tilde
        u_vecs[k] = np.sqrt(theta[k]) * (psi_k - sig_psi[k] / st)
        proj = signal.left.T @ psi_k
        xi[k] = np.concatenate([
            np.sqrt(theta[k]) * d**2 * proj / st,   # -sqrt(theta) m(theta) D^2 U^T psi
            d * proj,
        ])

    theta_prime = 1.0 - deficit
    bias = np.array([
        2.0 * kappa3 * theta_prime[k] / N
        * math.fsum(pi_tilde[k] * a_vecs[k]) * math.fsum(b_vecs[k])
        for k in range(k0)
    ])

    v_base = np.zeros((k0, k0))
    v_kurt = np.zeros((k0, k0))
    w_cross = np.zeros((k0, k0))
    ones_n = float(N)
    for k in range(k0):
        for j in range(k, k0):
            overlap = math.fsum(sig_psi[k] * pop.psi[:, j])  # psi_k' Sigma psi_j
            if k == j:
                st, tp = float(pop.sigma_tilde[k]), theta_prime[k]
                v_base[k, k] = 2.0 * tp**2 * overlap**2 + 2.0 * st**2 * tp * deficit[k]
            else:
                v_base[k, j] = v_base[j, k] = (
                    2.0 * theta_prime[k] * theta_prime[j] * overlap**2
                )
            if kappa4 != 0.0:
                m22_a = mixed_moment([a_vecs[k], a_vecs[j]], [2, 2])
                m22_b = mixed_moment([b_vecs[k], b_vecs[j]], [2, 2])
                val = (kappa4 * theta_prime[k] * theta_prime[j] / N
                       * (ones_n * m22_a + math.fsum(pi_tilde[k] * pi_tilde[j]) * m22_b))
                v_kurt[k, j] = v_kurt[j, k] = val
    if kappa3 != 0.0:
        for k in range(k0):
            for j in range(k0):
                w_cross[k, j] = (
                    2.0 * kappa3 * theta_prime[k] * theta_prime[j] / np.sqrt(N)
                    * (math.fsum(b_vecs[j]) * mixed_moment([a_vecs[k], a_vecs[j]], [2, 1])
                       + math.fsum(pi_tilde[k] * a_vecs[j])
                       * mixed_moment([b_vecs[k], b_vecs[j]], [2, 1]))
                )

    return SpikeTheory(
        theta=theta, theta_prime=theta_prime, spike_bias=bias,
        gauss_cov=v_base + v_kurt, gauss_cov_base=v_base,
        gauss_cov_kurtosis=v_kurt, cross_cov=w_cross,
        sqrt_sigma_psi=a_vecs, s_top_psi=b_vecs, u_vectors=u_vecs, xi=xi,
        sigma_tilde=pop.sigma_tilde[:k0].copy(), N=N, edge=pop.edge,
    )


@dataclass(frozen=True)
class ReductionReport:
    """Max discrepancy between the general spike formulas and their
    isotropic-noise closed forms, per quantity and overall."""

    per_quantity: dict
    max_discrepancy: float
    K0: int


def sigma_i_reduction_check(sigma: CovarianceModel, signal: SignalModel,
                            pop: DeformedPopulation, law, N: int) -> ReductionReport:
    """Cross-check the general path against the isotropic closed forms.

    For Sigma = I with distinct strengths d_k, every asymptotic quantity has
    a closed form in (d_k, singular vectors, phi).  This evaluates those
    forms independently of :func:`asymptotic_quantities` and reports the
    worst absolute discrepancy; the two paths must agree to ~1e-10.
    """
    if sigma.recipe != "identity":
        raise DomainError("reduction check requires the identity covariance recipe")
    if pop.K0 == 0:
        return ReductionReport({}, 0.0, 0)
    k0 = pop.K0
    d = signal.svals[:k0]
    if np.unique(d).size != k0:
        raise DomainError("reduction check requires distinct signal strengths")

    general = asymptotic_quantities(sigma, signal, pop, law, N)
    phi = pop.edge.phi
    m_dim = sigma.dim
    u = signal.left[:, :k0]
    v = signal.right[:, :k0]

    theta_c = 1.0 + d**2 + phi * (1.0 + 1.0 / d**2)
    thp_c = 1.0 - phi / d**4
    bias_c = np.array([
        2.0 * law.kappa3 * thp_c[k] / (N * d[k])
        * math.fsum(u[:, k]) * math.fsum(v[:, k])
        for k in range(k0)
    ])
    v_base_c = np.diag(2.0 * thp_c * (1.0 + phi + 2.0 * phi / d**2))
    v_kurt_c = np.zeros((k0, k0))
    w_c = np.zeros((k0, k0))
    for k in range(k0):
        for j in range(k0):
            v_kurt_c[k, j] = (law.kappa4 * thp_c[k] * thp_c[j] / N
                              * (N * mixed_moment([u[:, k], u[:, j]], [2, 2])
                                 + m_dim * mixed_moment([v[:, k], v[:, j]], [2, 2])))
            w_c[k, j] = (2.0 * law.kappa3 * thp_c[k] * thp_c[j] * d[j] / np.sqrt(N)
                         * (math.fsum(v[:, j]) * mixed_moment([u[:, k], u[:, j]], [2, 1])
                            + math.fsum(u[:, j]) * mixed_moment([v[:, k], v[:, j]], [2, 1])))

    per = {
        "theta": float(np.abs(general.theta - theta_c).max()),
        "theta_prime": float(np.abs(general.theta_prime - thp_c).max()),
        "spike_bias": float(np.abs(general.spike_bias - bias_c).max()),
        "gauss_cov_base": float(np.abs(general.gauss_cov_base - v_base_c).max()),
        "gauss_cov_kurtosis": float(np.abs(general.gauss_cov_kurtosis - v_kurt_c).max()),
        "cross_cov": float(np.abs(general.cross_cov - w_c).max()),
    }
    return ReductionReport(per, max(per.values()), k0)


def theta_component_cf(t, theory: SpikeTheory, law, N: int) -> complex:
    """Exact characteristic function E exp(i sum_k t_k Theta_k).

    The nonuniversal components are linear in the noise entries, so the
    joint characteristic function factorizes exactly over entries:

        prod_{i, mu} cf_w(2 sum_k t_k theta'_k a_{k i} b_{k mu})

    with a_k = Sigma^{1/2} psi_k and b_k = S^T psi_k.  Requires a law with
    an analytic scalar characteristic function.
    """
    if law.cf is None:
        raise CapabilityError(
            f"noise law {law.kind!r} has no analytic characteristic function"
        )
    t = np.asarray(t, dtype=float)
    if t.shape != (theory.K0,):
        raise DomainError(f"need {theory.K0} coefficients, got shape {t.shape}")
    coeff = 2.0 * t * theory.theta_prime
    args = (coeff[:, None] * theory.sqrt_sigma_psi).T @ theory.s_top_psi
    return complex(np.prod(law.cf(args)))


def delocalization_profile(theory: SpikeTheory) -> np.ndarray:
    """Per-spike sup norms (|Sigma^{1/2} psi_k|_inf, |S^T psi_k|_inf).

    Both order one means the nonuniversal component keeps the entry law's
    shape; either vanishing means it is asymptotically Gaussian.
    """
    return np.column_stack([
        np.abs(theory.sqrt_sigma_psi).max(axis=1),
        np.abs(theory.s_top_psi).max(axis=1),
    ])
