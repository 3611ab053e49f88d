"""Population covariance models and their spectral data.

Everything downstream (edge finding, spike limits, Monte Carlo) consumes a
covariance only through the eigendata produced here: sorted eigenvalues, an
orthonormal basis where one is materialized, and the symmetric PSD square
root.  Supported recipes:

  identity        Sigma = I
  diagonal        explicit diagonal entries
  toeplitz        geometric decay, Sigma_ij = rho ** |i - j|
  haar            O diag(s) O^T with s_i ~ Unif(a, b) and O Haar-orthogonal
  dense           explicit symmetric PSD matrix
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError, NumericalError


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an orthogonal matrix from the Haar measure.

    Sign-corrected QR of a standard Gaussian matrix: multiplying Q's columns
    by the signs of R's diagonal removes the sign ambiguity that would
    otherwise bias plain QR away from Haar.
    """
    z = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * np.copysign(1.0, np.diag(r))


@dataclass(frozen=True)
class CovarianceModel:
    """Population noise covariance with its spectral data.

    ``eigenvalues`` are sorted non-increasing (ties keep the original index
    order).  ``basis`` is None for the axis-aligned recipes; ``diag`` holds
    the diagonal entries in storage order for those recipes.  ``root`` is
    the symmetric PSD square root, stored for the recipes with a basis.
    """

    recipe: str
    dim: int
    eigenvalues: np.ndarray
    basis: np.ndarray | None = None
    diag: np.ndarray | None = None
    root: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.basis is not None:
            object.__setattr__(self, "root", self.function(np.sqrt))

    # -- derived matrices ------------------------------------------------

    @property
    def top_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def function(self, fn) -> np.ndarray:
        """Dense f(Sigma) = V f(Lambda) V' for an elementwise function ``fn``
        (diag(f(d)) for the axis recipes)."""
        if self.basis is None:
            return np.diag(fn(self.diag))
        return (self.basis * fn(self.eigenvalues)) @ self.basis.T

    def matrix(self) -> np.ndarray:
        """Materialize Sigma as a dense array."""
        return self.function(lambda vals: vals)

    # -- fast linear maps (avoid densifying the axis recipes) ------------

    def sqrt_matmat(self, x: np.ndarray) -> np.ndarray:
        """Apply Sigma^{1/2} to a vector or a stack of columns."""
        if self.recipe == "identity":
            return np.asarray(x, dtype=float).copy()
        if self.recipe == "diagonal":
            scale = np.sqrt(self.diag)
            return scale[:, None] * x if np.ndim(x) == 2 else scale * x
        return self.root @ x

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply Sigma to a vector."""
        if self.recipe == "identity":
            return np.asarray(v, dtype=float).copy()
        if self.recipe == "diagonal":
            return self.diag * v
        return (self.basis * self.eigenvalues) @ (self.basis.T @ v)

    def resolvent_diag(self, shift: float) -> np.ndarray:
        """Diagonal of Sigma (shift - Sigma)^{-1}, entrywise in storage order.

        Requires ``shift`` strictly above the spectrum; callers guard the
        near-pole case.
        """
        if self.recipe == "identity":
            return np.full(self.dim, 1.0 / (shift - 1.0))
        if self.recipe == "diagonal":
            return self.diag / (shift - self.diag)
        weights = self.basis**2
        return weights @ (self.eigenvalues / (shift - self.eigenvalues))


def _stable_descending_order(values):
    # argsort on the negated values keeps ties in index order (stable sort)
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
    return CovarianceModel(recipe, mat.shape[0], vals, basis=vecs)


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
        return CovarianceModel(
            "identity", dim, np.ones(dim), diag=np.ones(dim)
        )

    if recipe == "diagonal":
        entries = np.asarray(params["entries"], dtype=float)
        if entries.shape != (dim,):
            raise ConfigError("diagonal entries must have length dim")
        if entries.min() < 0:
            raise DomainError(f"negative diagonal entry {entries.min():.6e}")
        order = _stable_descending_order(entries)
        return CovarianceModel("diagonal", dim, entries[order], diag=entries)

    if recipe == "toeplitz":
        rho = float(params["rho"])
        if abs(rho) >= 1:
            raise ConfigError(f"toeplitz ratio must satisfy |rho| < 1, got {rho}")
        idx = np.arange(dim)
        mat = rho ** np.abs(idx[:, None] - idx[None, :])
        return _from_eigh("toeplitz", mat)

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
        basis = haar_orthogonal(dim, rng)
        order = _stable_descending_order(spectrum)
        return CovarianceModel("haar", dim, spectrum[order], basis=basis[:, order])

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

    ``multiplicities`` keep the exact integer counts so the total weight is
    1 by construction (rational accumulation).
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
        """nu([0, cutoff]) by exact rational accumulation when available."""
        mask = self.values <= cutoff
        if self.multiplicities is not None:
            total = int(self.multiplicities.sum())
            frac = sum(
                Fraction(int(m), total)
                for m, keep in zip(self.multiplicities, mask) if keep
            )
            return float(frac)
        return math.fsum(self.weights[mask])


def esd(model: CovarianceModel) -> SpectralDistribution:
    """Empirical spectral distribution of a covariance model.

    Atoms are the distinct eigenvalues; weights are multiplicity / M,
    accumulated as exact rationals.
    """
    values, counts = np.unique(model.eigenvalues, return_counts=True)
    weights = np.array(
        [float(Fraction(int(c), model.dim)) for c in counts]
    )
    return SpectralDistribution(values, weights, multiplicities=counts)


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


def check_assumptions(model: CovarianceModel, N: int, tau: float) -> AssumptionReport:
    """Check the high-dimensional regularity assumptions; never raises on a
    violation, it reports the measured margin instead."""
    from .stieltjes import find_w_plus  # deferred: stieltjes depends on spectra

    if not 0 < tau < 1:
        raise ConfigError(f"tau must lie in (0, 1), got {tau}")
    phi = model.dim / N
    aspect = AssumptionCheck(
        tau <= phi <= 1.0 / tau, min(phi - tau, 1.0 / tau - phi)
    )
    sigma1 = model.top_eigenvalue
    norm = AssumptionCheck(sigma1 <= 1.0 / tau, 1.0 / tau - sigma1)

    nu = esd(model)
    mass = nu.mass_below(tau)
    low_mass = AssumptionCheck(mass <= 1.0 - tau, (1.0 - tau) - mass)

    if sigma1 <= 0:
        edge = AssumptionCheck(False, float("nan"))
    else:
        try:
            value = find_w_plus(nu, phi).w_plus + 1.0 / sigma1
            edge = AssumptionCheck(value >= tau, value)
        except (DomainError, NumericalError):
            edge = AssumptionCheck(False, float("nan"))
    return AssumptionReport(tau, phi, aspect, norm, low_mass, edge)
