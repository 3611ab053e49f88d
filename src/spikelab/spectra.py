"""Population covariance models and their spectral data.

A covariance is held in one spectral form, Sigma = V diag(values) V', where
the axis-aligned recipes store no basis V.  Everything downstream reads it
through that form: the sorted eigenvalues (edge finding, spike limits) and
elementwise functions f(Sigma), either dense (``function``), applied to a
vector or a block of columns (``apply``: Sigma, Sigma^{1/2} X, the local-law
Pi(z)) or as a diagonal (``diagonal``), and V'x and back (``coordinates``,
``from_coordinates``, which the secular equation of the deformed population
reads).  Supported recipes:

  identity        Sigma = I
  diagonal        explicit diagonal entries
  toeplitz        geometric decay, Sigma_ij = rho ** |i - j| (eigenpairs in
                  closed form)
  haar            O diag(s) O^T with s_i ~ Unif(a, b) and O Haar-orthogonal
  dense           explicit symmetric PSD matrix
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DomainError, NumericalError

if TYPE_CHECKING:
    from .stieltjes import EdgeData   # stieltjes depends on spectra


def haar_orthogonal(gaussian: np.ndarray) -> np.ndarray:
    """Haar-distributed orthogonal matrices from standard Gaussian ones.

    Sign-corrected QR of each M x M matrix of ``gaussian`` (one matrix or a
    stack of shape (..., M, M), factored by one stacked ``qr``): multiplying
    Q's columns by the signs of R's diagonal removes the sign ambiguity that
    would otherwise bias plain QR away from Haar.
    """
    q, r = np.linalg.qr(gaussian)
    q *= np.copysign(1.0, np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return q


def haar_eigendata(spectrum: np.ndarray, gaussian: np.ndarray):
    """(values, basis) of the Haar covariance O diag(spectrum) O' with
    O = ``haar_orthogonal(gaussian)``: the values sorted non-increasing and
    the basis columns in their order.  One draw, or a stack of them."""
    order = _stable_descending_order(spectrum)
    # the columns are gathered as rows of the transpose, so that each basis is
    # column-major as q[:, order] makes it: products with vectors round by
    # memory layout
    rows = np.swapaxes(haar_orthogonal(gaussian), -1, -2)
    basis = np.swapaxes(np.take_along_axis(rows, order[..., :, None], axis=-2), -1, -2)
    return np.take_along_axis(spectrum, order, axis=-1), basis


@dataclass(frozen=True)
class CovarianceModel:
    """Population noise covariance Sigma = V diag(values) V'.

    ``basis`` (V) is None for the axis-aligned recipes, whose ``values`` are
    the diagonal entries in storage order; otherwise ``values`` are the
    eigenvalues belonging to V's columns.  Every map below is an elementwise
    function of ``values`` carried through V where there is one.
    """

    recipe: str
    values: np.ndarray
    basis: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.values)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted non-increasing (ties keep the storage order)."""
        return self.values[_stable_descending_order(self.values)]

    def function(self, fn) -> np.ndarray:
        """Dense f(Sigma) = V f(Lambda) V' for an elementwise function ``fn``."""
        if self.basis is None:
            return np.diag(fn(self.values))
        return (self.basis * fn(self.values)) @ self.basis.T

    def apply(self, fn, x: np.ndarray) -> np.ndarray:
        """f(Sigma) x for a vector, a block of columns or a stack of blocks,
        without densifying."""
        vals = fn(self.values)
        if self.basis is None:
            return vals[:, None] * x if np.ndim(x) >= 2 else vals * x
        return (self.basis * vals) @ (self.basis.T @ x)

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """V' x: a vector or a block of columns in the order of ``values``."""
        if self.basis is None:
            return np.asarray(x, dtype=float)
        return self.basis.T @ x

    def from_coordinates(self, y: np.ndarray) -> np.ndarray:
        """V y: the inverse of ``coordinates``, back to storage order."""
        if self.basis is None:
            return np.asarray(y, dtype=float)
        return self.basis @ y

    def diagonal(self, fn) -> np.ndarray:
        """Diagonal of f(Sigma) in storage order."""
        if self.basis is None:
            return fn(self.values)
        return self.basis**2 @ fn(self.values)

    def matrix(self) -> np.ndarray:
        """Materialize Sigma as a dense array."""
        return self.function(lambda vals: vals)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply Sigma to a vector or a block of columns."""
        return self.apply(lambda vals: vals, v)

    @cached_property
    def root(self) -> np.ndarray:
        """The symmetric PSD square root, built on first use."""
        return self.function(np.sqrt)

    def sqrt_matmat(self, x: np.ndarray) -> np.ndarray:
        """Apply Sigma^{1/2} to a vector, a block of columns or a stack of
        blocks."""
        if self.basis is None:
            return self.apply(np.sqrt, x)
        return self.root @ x


def _stable_descending_order(values):
    # argsort on the negated values keeps ties in index order (stable sort);
    # a stack is sorted along its last axis
    return np.argsort(-np.asarray(values), kind="stable")


def _from_eigh(recipe, mat, psd_tol=1e-8):
    vals, vecs = np.linalg.eigh(mat)
    order = _stable_descending_order(vals)
    vals, vecs = vals[order], vecs[:, order]
    if vals[-1] < -psd_tol * max(vals[0], 1.0):
        raise DomainError(
            f"{recipe} covariance is not PSD: eigenvalue {vals[-1]:.6g}"
        )
    vals = np.clip(vals, 0.0, None)
    return CovarianceModel(recipe, vals, basis=vecs)


def _kms_eigenpairs(dim, rho):
    """Eigenpairs of the Kac-Murdock-Szego matrix rho^|i-j| in closed form.

    Its inverse is tridiagonal, so an eigenvector x_k = sin(k t + p(t)),
    k = 1..dim, with p(t) = atan2(rho sin t, 1 - rho cos t), meets the
    boundary conditions x_0 = rho x_1 and x_{dim+1} = rho x_dim exactly when
    (dim + 1) t + 2 p(t) = j pi.  The left side increases in t and |2p| < pi,
    so the j-th root lies in ((j - 1) pi, (j + 1) pi) / (dim + 1); all dim
    roots are found at once by Newton steps kept inside those brackets.  The
    eigenvalue is (1 - rho^2) / ((1 - rho)^2 + 4 rho sin^2(t / 2)).
    """
    j = np.arange(1, dim + 1)
    width = np.pi / (dim + 1)
    lo, hi = (j - 1) * width, np.minimum((j + 1) * width, np.pi)
    t = j * width
    for _ in range(100):
        sin_t, cos_t = np.sin(t), np.cos(t)
        g = (dim + 1) * t + 2.0 * np.arctan2(rho * sin_t, 1.0 - rho * cos_t) - j * np.pi
        slope = (dim + 1) + 2.0 * rho * (cos_t - rho) / (1.0 - 2.0 * rho * cos_t + rho**2)
        lo = np.where(g < 0, t, lo)
        hi = np.where(g > 0, t, hi)
        step = t - g / slope
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        converged = np.abs(step - t) <= 4.0 * np.finfo(float).eps
        t = step
        if converged.all():
            break
    phase = np.arctan2(rho * np.sin(t), 1.0 - rho * np.cos(t))
    vecs = np.sin(np.outer(j, t) + phase)
    vecs /= np.linalg.norm(vecs, axis=0)
    vals = (1.0 - rho**2) / ((1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * t) ** 2)
    return vals, vecs


def make_covariance(recipe: str, dim: int, seed=None, **params) -> CovarianceModel:
    """Construct a covariance model from a named recipe.

    Parameters
    ----------
    recipe : one of identity | diagonal | toeplitz | haar | dense
    dim : matrix dimension M >= 1
    seed : required for the haar recipe: an integer or an existing Generator
    params : recipe-specific: ``entries`` (diagonal), ``rho`` (toeplitz),
        ``bounds=(a, b)`` (haar), ``matrix`` (dense)
    """
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")

    if recipe == "identity":
        return CovarianceModel("identity", np.ones(dim))

    if recipe == "diagonal":
        entries = np.asarray(params["entries"], dtype=float)
        if entries.shape != (dim,):
            raise ConfigError("diagonal entries must have length dim")
        if entries.min() < 0:
            raise DomainError(f"negative diagonal entry {entries.min():.6e}")
        return CovarianceModel("diagonal", entries)

    if recipe == "toeplitz":
        rho = float(params["rho"])
        if abs(rho) >= 1:
            raise ConfigError(f"toeplitz ratio must satisfy |rho| < 1, got {rho}")
        vals, vecs = _kms_eigenpairs(dim, rho)
        order = _stable_descending_order(vals)
        return CovarianceModel("toeplitz", vals[order], basis=vecs[:, order])

    if recipe == "haar":
        a, b = (float(x) for x in params["bounds"])
        if a > b:
            raise ConfigError(f"haar bounds must satisfy a <= b, got ({a}, {b})")
        if a < 0:
            raise DomainError("haar eigenvalue bounds must be nonnegative")
        if seed is None:
            raise ConfigError("haar recipe requires a seed")
        rng = (seed if isinstance(seed, np.random.Generator) else
               np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))))
        spectrum = rng.uniform(a, b, size=dim)
        values, basis = haar_eigendata(spectrum, rng.standard_normal((dim, dim)))
        return CovarianceModel("haar", values, basis=basis)

    if recipe == "dense":
        mat = np.asarray(params["matrix"], dtype=float)
        if mat.shape != (dim, dim):
            raise ConfigError(f"dense matrix must be {dim}x{dim}")
        if not np.allclose(mat, mat.T, atol=1e-12 * max(1.0, np.abs(mat).max())):
            raise DomainError("dense covariance must be symmetric")
        return _from_eigh("dense", 0.5 * (mat + mat.T))

    raise ConfigError(f"unknown covariance recipe {recipe!r}")


@dataclass(frozen=True)
class SpectralDistribution:
    """Discrete spectral distribution: atoms (ascending) with weights.

    ``multiplicities`` keep the exact integer counts, so masses are read as
    count ratios rather than sums of rounded weights.
    """

    values: np.ndarray
    weights: np.ndarray
    multiplicities: np.ndarray | None = None

    def __post_init__(self):
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise NumericalError(f"spectral weights sum to {total}, not 1")

    @classmethod
    def from_atoms(cls, values, weights):
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        order = np.argsort(values)
        return cls(values[order], weights[order])

    @property
    def top(self) -> float:
        return float(self.values[-1])

    def mass_below(self, cutoff: float) -> float:
        """nu([0, cutoff]), as a count ratio (correctly rounded) when the
        multiplicities are known."""
        mask = self.values <= cutoff
        if self.multiplicities is not None:
            total = int(self.multiplicities.sum())
            return int(self.multiplicities[mask].sum()) / total
        return math.fsum(self.weights[mask])


def esd(model: CovarianceModel) -> SpectralDistribution:
    """Empirical spectral distribution of a covariance model.

    Atoms are the distinct eigenvalues; weights are multiplicity / M, each
    a correctly rounded quotient of two exact integers.
    """
    values, counts = np.unique(model.eigenvalues, return_counts=True)
    return SpectralDistribution(values, counts / model.dim, multiplicities=counts)


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
